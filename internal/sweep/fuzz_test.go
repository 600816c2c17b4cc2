package sweep

import (
	"encoding/binary"
	"hash/crc32"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/attack"
)

// FuzzDecodeUnit feeds the checkpoint decoder arbitrary bytes, seeded with
// saved units: the synthetic evaluation, one with an empty candidate list
// per v-pin and no subset, and one of zero v-pins. Every input is also
// tried with its length prefix and checksum repaired, so mutations reach the
// JSON and evaluation-shape checks behind them. The decoder must not panic
// and must allocate no more than a fixed multiple of the input; an accepted
// unit must answer Digest and AccuracyAtK, and must save to bytes that
// decode to the same digest.
func FuzzDecodeUnit(f *testing.F) {
	bare := syntheticEval()
	bare.Cands = [][]attack.Candidate{{}, {}, {}}
	bare.Subset = nil
	empty := &attack.Evaluation{ConfigName: "Imp-11", Design: "sb10", SplitLayer: 6}
	for _, ev := range []*attack.Evaluation{syntheticEval(), bare, empty} {
		blob, err := encodeUnit(&UnitResult{Unit: testUnit(), RadiusNorm: 0.0625, Eval: ev})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkUnitDecode(t, data)
		checkUnitDecode(t, withLengthAndCRC(data))
	})
}

// withLengthAndCRC returns a copy of data whose payload length prefix and
// trailing CRC-32 match the bytes between them.
func withLengthAndCRC(data []byte) []byte {
	out := slices.Clone(data)
	headerLen := len(unitMagic) + 2 + 4
	if len(out) < headerLen+4 {
		return out
	}
	binary.LittleEndian.PutUint32(out[len(unitMagic)+2:], uint32(len(out)-headerLen-4))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// checkUnitDecode holds one decodeUnit call to the fuzz properties.
func checkUnitDecode(t *testing.T, data []byte) {
	t.Helper()
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocated)
	before := allocated[0].Value.Uint64()
	res, err := decodeUnit(data)
	metrics.Read(allocated)
	if grew, limit := allocated[0].Value.Uint64()-before, uint64(64*len(data)+1<<20); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, above %d", len(data), grew, limit)
	}
	if err != nil {
		return
	}
	digest := res.Eval.Digest()
	res.Eval.AccuracyAtK(1)
	enc, err := encodeUnit(res)
	if err != nil {
		t.Fatalf("accepted unit does not encode: %v", err)
	}
	back, err := decodeUnit(enc)
	if err != nil {
		t.Fatalf("re-encoded unit does not decode: %v", err)
	}
	if got := back.Eval.Digest(); got != digest {
		t.Fatalf("digest changed across a re-save: %s, then %s", digest, got)
	}
}
