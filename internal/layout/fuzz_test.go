package layout

import (
	"bytes"
	"runtime/metrics"
	"strings"
	"testing"
)

// tinySML is a complete two-cell, one-net design: small enough that the
// fuzzer mutates it instead of spending its budget minimizing.
const tinySML = `SML 1
DESIGN tiny
DIE 0 0 400 400
CELLS 2
C 0 INV_X1 0 0
C 1 INV_X1 200 200
NETS 1
N 0 0 1 1 1 0
ROUTES 1
R 0 3 10 10 210 210 10 100 210 100
S 1 0 10 10 10 100
S 3 0 10 100 210 100
V 1 0 10 10
V 2 0 10 100
END
`

// FuzzLoad feeds the .sml loader arbitrary text, seeded with a tiny saved
// design, a header whose cell count no input could hold, and a design whose
// trunk layer is off the metal stack. Load must not panic and must allocate
// no more than a fixed multiple of its input; an accepted design must
// answer LayerPopulation and save to bytes that load and save again
// identically.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(tinySML))
	f.Add([]byte("SML 1\nDESIGN x\nDIE 0 0 10 10\nCELLS 4000000000000000000\n"))
	f.Add([]byte(strings.Replace(tinySML, "R 0 3 ", "R 0 99 ", 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		d, err := Load(bytes.NewReader(data))
		metrics.Read(allocated)
		if grew, limit := allocated[0].Value.Uint64()-before, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("loading %d bytes allocated %d bytes, above %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		d.Routing.LayerPopulation()
		var first, second bytes.Buffer
		if err := Save(&first, d); err != nil {
			t.Fatalf("accepted design does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved design does not load: %v", err)
		}
		if err := Save(&second, again); err != nil {
			t.Fatalf("reloaded design does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("design changed across a save and load:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestLoadTinySeed pins the fuzz seed as a loadable design, so the fuzzer
// starts from an input that reaches the round trip.
func TestLoadTinySeed(t *testing.T) {
	d, err := Load(strings.NewReader(tinySML))
	if err != nil {
		t.Fatal(err)
	}
	if pop := d.Routing.LayerPopulation(); pop[3] != 1 {
		t.Errorf("layer population %v, want the one net on metal 3", pop)
	}
}
