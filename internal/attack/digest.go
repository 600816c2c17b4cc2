package attack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Digest is a canonical content address over everything an Evaluation
// asserts about the attacked design: the identity fields, the ground
// truth, the scored true-match probabilities, and every retained candidate
// list entry (partner, probability bits, distance bits), in list order.
// Two evaluations share a digest exactly when every downstream metric —
// accuracy at any LoC, proximity picks, trade-off curves — is computed
// from identical bits. Durations and phase breakdowns are excluded: they
// vary run to run without changing the result.
//
// The digest is how the job server's bit-identity contract is checked:
// an attack served over HTTP must digest identically to the same
// configuration run in-process via RunTargetInstances.
func (ev *Evaluation) Digest() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "eval/v1 config=%s design=%s layer=%d n=%d\n",
		ev.ConfigName, ev.Design, ev.SplitLayer, ev.N)
	fmt.Fprintf(h, "subset=%d\n", len(ev.Subset))
	for _, a := range ev.Subset {
		u64(uint64(int64(a)))
	}
	for a := 0; a < ev.N; a++ {
		u64(uint64(int64(ev.Truth[a])))
		u64(uint64(math.Float32bits(ev.TruthP[a])))
		cands := ev.Cands[a]
		u64(uint64(len(cands)))
		for _, c := range cands {
			u64(uint64(int64(c.Other)))
			u64(uint64(math.Float32bits(c.P)))
			u64(uint64(math.Float32bits(c.D)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
