package pairs

import (
	"math"
	"sort"
	"testing"

	"repro/internal/features"
)

// presetBackend writes a fixed probability vector into the arena —
// the controlled input of the ranking-head tests.
type presetBackend struct{ ps []float64 }

func (p *presetBackend) score(g *Gatherer) { copy(g.P, p.ps) }
func (p *presetBackend) pairwise() bool    { return true }

// constBatchScorer is a batch-capable constant model for resolver tests.
type constBatchScorer struct{ p float64 }

func (c constBatchScorer) Prob([]float64) float64 { return c.p }
func (c constBatchScorer) ProbBatch(rows []float64, stride int, out []float64) {
	for i := range out {
		out[i] = c.p
	}
}

// gatherFixture returns a Gatherer holding one real v-pin's candidates.
func gatherFixture(t *testing.T) (*Gatherer, Filter) {
	t.Helper()
	inst := New(challenges(t, 6)[4])
	f := inst.Filter(-1, false)
	var g Gatherer
	for a := 0; a < inst.N(); a++ {
		g.Gather(f, a)
		if len(g.Ids) >= 3 {
			return &g, f
		}
	}
	t.Fatal("no v-pin with at least 3 candidates")
	return nil, Filter{}
}

func TestRankedSoftmaxNormalises(t *testing.T) {
	g, _ := gatherFixture(t)
	n := len(g.Ids)
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = float64(i%7) / 7 // repeated values exercise ties too
	}
	g.Score(Ranked(&presetBackend{ps: raw}))

	var sum float64
	for _, p := range g.P {
		if p < 0 || p > 1 {
			t.Fatalf("softmax output %v outside [0, 1]", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax outputs sum to %v, want 1", sum)
	}
	// Monotone: the per-list ranking is exactly the raw ranking.
	rawOrder := argsort(raw)
	softOrder := argsort(g.P)
	for i := range rawOrder {
		if rawOrder[i] != softOrder[i] {
			t.Fatalf("ranking changed: raw order %v, softmax order %v", rawOrder, softOrder)
		}
	}
}

func TestRankedPreservesGateSentinels(t *testing.T) {
	g, _ := gatherFixture(t)
	n := len(g.Ids)
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = 0.4 + 0.01*float64(i)
	}
	raw[0] = -1 // two-level gate rejection
	if n > 2 {
		raw[2] = -1
	}
	g.Score(Ranked(&presetBackend{ps: raw}))
	var sum float64
	for i, p := range g.P {
		if raw[i] < 0 {
			if p != raw[i] {
				t.Fatalf("gate-rejected candidate %d rescored to %v", i, p)
			}
			continue
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("admitted scores sum to %v, want 1", sum)
	}
}

func TestRankedAllRejectedUntouched(t *testing.T) {
	g, _ := gatherFixture(t)
	raw := make([]float64, len(g.Ids))
	for i := range raw {
		raw[i] = -1
	}
	g.Score(Ranked(&presetBackend{ps: raw}))
	for i, p := range g.P {
		if p != -1 {
			t.Fatalf("fully rejected list rescored at %d: %v", i, p)
		}
	}
}

func TestRankedWrapIdempotentAndTransparent(t *testing.T) {
	b := Ranked(&presetBackend{})
	if Ranked(b) != b {
		t.Error("double-wrapping allocated a second ranking head")
	}
	// The head wraps the model's backend and scores through it: over a
	// constant model every admitted candidate gets an equal share.
	g, _ := gatherFixture(t)
	for _, sc := range []Scorer{constBatchScorer{p: 0.5}, constScorer{p: 0.5}} {
		g.Score(Ranked(ResolveBackend(sc, false)))
		for i, p := range g.P {
			if want := 1 / float64(len(g.P)); math.Abs(p-want) > 1e-12 {
				t.Fatalf("%T: ranked score %d = %v, want %v", sc, i, p, want)
			}
		}
	}
}

// TestGathererStride: a wider Stride must gather the same candidates with
// wider rows whose base block matches the default-width gather and whose
// routing block is filled.
func TestGathererStride(t *testing.T) {
	inst := New(challenges(t, 6)[4])
	f := inst.Filter(-1, false)
	var narrow, wide Gatherer
	wide.Stride = features.NumAll
	a := 0
	for ; a < inst.N(); a++ {
		narrow.Gather(f, a)
		if len(narrow.Ids) > 0 {
			break
		}
	}
	wide.Gather(f, a)
	if len(wide.Ids) != len(narrow.Ids) {
		t.Fatalf("stride changed the candidate set: %d vs %d", len(wide.Ids), len(narrow.Ids))
	}
	want := make([]float64, features.NumAll)
	for k := range wide.Ids {
		nrow := narrow.rows[k*features.NumFeatures : (k+1)*features.NumFeatures]
		wrow := wide.rows[k*features.NumAll : (k+1)*features.NumAll]
		for j, v := range nrow {
			if wrow[j] != v {
				t.Fatalf("candidate %d base feature %d differs: %g vs %g", k, j, wrow[j], v)
			}
		}
		inst.Ex.Pair(a, int(wide.Ids[k]), want)
		for j := features.NumFeatures; j < features.NumAll; j++ {
			if wrow[j] != want[j] {
				t.Fatalf("candidate %d routing feature %d = %g, want %g", k, j, wrow[j], want[j])
			}
		}
	}
}

func argsort(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}
