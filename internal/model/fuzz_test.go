package model

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime/metrics"
	"slices"
	"testing"
)

// FuzzUnmarshalArtifact feeds the artifact decoder arbitrary bytes, seeded
// with the fixture's encoded one-level and two-level bagging, MLP and
// logistic artifacts. The seeds are trained small (one tree on 64 samples,
// two hidden units) because the engine minimizes every new interesting
// input, which takes long on a large one. Every input is also tried with
// its checksums repaired, so mutations reach the metadata and payload
// decoders behind them. The decoder must not panic, must allocate no more
// than a fixed multiple of the input, and an accepted blob must re-encode
// to bytes that decode and re-encode to themselves.
func FuzzUnmarshalArtifact(f *testing.F) {
	small := imp11Opts()
	small.NumTrees = 1
	small.TrainCap = 64
	twoLevel := small
	twoLevel.TwoLevel = true
	mlp := small
	mlp.Family = FamilyMLP
	mlp.MLPHidden = 2
	mlp.MLPEpochs = 1
	logistic := small
	logistic.Family = FamilyLogistic
	for _, opts := range []TrainOptions{small, twoLevel, mlp, logistic} {
		art, _, err := Train(testSpec(f, opts))
		if err != nil {
			f.Fatal(err)
		}
		blob, err := art.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkArtifactDecode(t, data)
		checkArtifactDecode(t, withChecksums(data))
	})
}

// withChecksums returns a copy of data with the trailing CRC-32 of each
// payload section the container's length prefixes delimit recomputed, and
// then the container's own.
func withChecksums(data []byte) []byte {
	out := slices.Clone(data)
	fix := func(b []byte) {
		if n := len(b) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(b[n:], crc32.ChecksumIEEE(b[:n]))
		}
	}
	off := len(artifactMagic) + 2
	for section := 0; section < 3 && off+4 <= len(out)-4; section++ {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		off += 4
		if n > len(out)-4-off {
			break
		}
		if section > 0 {
			fix(out[off : off+n])
		}
		off += n
	}
	fix(out)
	return out
}

// checkArtifactDecode holds one UnmarshalArtifact call to the fuzz
// properties.
func checkArtifactDecode(t *testing.T, data []byte) {
	t.Helper()
	allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocated)
	before := allocated[0].Value.Uint64()
	art, err := UnmarshalArtifact(data)
	metrics.Read(allocated)
	// Every section is length-prefixed and checked against the blob before
	// anything is allocated for it, so the decoded form stays within a
	// small multiple of the input.
	if grew, limit := allocated[0].Value.Uint64()-before, uint64(64*len(data)+1<<20); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, above %d", len(data), grew, limit)
	}
	if err != nil {
		return
	}
	enc, err := art.MarshalBinary()
	if err != nil {
		t.Fatalf("accepted blob does not re-encode: %v", err)
	}
	back, err := UnmarshalArtifact(enc)
	if err != nil {
		t.Fatalf("re-encoded blob does not decode: %v", err)
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatalf("decoded re-encoding does not encode: %v", err)
	}
	if !bytes.Equal(enc, again) {
		t.Fatalf("re-encoding is not stable: %d bytes, then %d", len(enc), len(again))
	}
}
