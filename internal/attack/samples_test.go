package attack

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/pairs"
)

func TestPairFilterRules(t *testing.T) {
	chs := challenges(t, 6)
	inst := pairs.New(chs[4])

	// No filters: everything legal and distinct is admitted.
	open := ML9().withDefaults().Filter(inst, -1)
	if open.Admits(0, 0) {
		t.Error("self-pair admitted")
	}
	m := inst.Match(0)
	if !open.Admits(0, m) {
		t.Error("true match not admitted without filters")
	}

	// Neighborhood: radius 0 rejects everything not co-located.
	cfg := Imp9().withDefaults()
	tight := cfg.Filter(inst, 0)
	admittedAny := false
	for b := 0; b < inst.N() && !admittedAny; b++ {
		if b != 0 && tight.Admits(0, b) && inst.Ex.VpinDist(0, b) > 0 {
			admittedAny = true
		}
	}
	if admittedAny {
		t.Error("zero-radius filter admitted a distant pair")
	}

	// Y limit rejects pairs with different y.
	ycfg := WithY(ML9()).withDefaults()
	yf := ycfg.Filter(inst, -1)
	for b := 1; b < inst.N(); b++ {
		if inst.Ex.DiffVpinYOf(0, b) != 0 && yf.Admits(0, b) {
			t.Fatalf("Y filter admitted pair with DiffVpinY %f", inst.Ex.DiffVpinYOf(0, b))
		}
	}

	// Illegal (driver-driver) pairs are always rejected.
	var d1, d2 = -1, -1
	for i := 0; i < inst.N(); i++ {
		if inst.Ch.VPins[i].IsDriverSide() {
			if d1 < 0 {
				d1 = i
			} else {
				d2 = i
				break
			}
		}
	}
	if d1 >= 0 && d2 >= 0 && open.Admits(d1, d2) {
		t.Error("driver-driver pair admitted")
	}
}

func TestSampleNegativeRespectsFilters(t *testing.T) {
	chs := challenges(t, 8)
	inst := pairs.New(chs[0])
	rng := rand.New(rand.NewSource(2))
	cfg := WithY(Imp9()).withDefaults()
	radius := NeighborRadiusNorm([]*Instance{inst}, 0.9)
	filter := cfg.Filter(inst, radius)

	vpins := make([]int, inst.N())
	selected := make([]bool, inst.N())
	for i := range vpins {
		vpins[i] = i
		selected[i] = true
	}
	var cands []int32
	for trial := 0; trial < 100; trial++ {
		a := rng.Intn(inst.N())
		m := inst.Match(a)
		b, ok := model.SampleNegative(filter, vpins, selected, a, m, rng, &cands)
		if !ok {
			continue // legitimately no admitted negative for this v-pin
		}
		if b == m || b == a {
			t.Fatalf("negative sample returned the match or self")
		}
		if !filter.Admits(a, b) {
			t.Fatalf("negative sample (%d,%d) violates the filter", a, b)
		}
	}
}

// TestSampleNegativeFallbackAllocFree pins the training path's use of the
// candidate walk: with rejection sampling bound to fail (its only pool
// entry is the match), SampleNegative falls back to the reservoir over
// the Y-limited filter's admitted candidates, and that makes no
// allocation.
func TestSampleNegativeFallbackAllocFree(t *testing.T) {
	inst := pairs.New(challenges(t, 8)[0])
	filter := WithY(Imp9()).withDefaults().Filter(inst, NeighborRadiusNorm([]*Instance{inst}, 0.9))
	selected := make([]bool, inst.N())
	for i := range selected {
		selected[i] = true
	}
	rng := rand.New(rand.NewSource(4))
	var cands []int32
	// The first v-pin whose fallback finds a negative, so the walk has
	// candidates to visit; it also grows the scratch.
	a, m := -1, -1
	for v := 0; v < inst.N() && a < 0; v++ {
		if w := inst.Match(v); w >= 0 {
			if _, ok := model.SampleNegative(filter, []int{w}, selected, v, w, rng, &cands); ok {
				a, m = v, w
			}
		}
	}
	if a < 0 {
		t.Fatal("no v-pin of the fixture has a Y-limited negative")
	}
	pool := []int{m}
	sample := func() { model.SampleNegative(filter, pool, selected, a, m, rng, &cands) }
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Errorf("SampleNegative's reservoir fallback allocates %.1f times per call, want 0", allocs)
	}
}

func TestTrainingSetOnlyVpinsRestriction(t *testing.T) {
	chs := challenges(t, 8)
	insts := NewInstancesWorkers(chs[:1], 0)
	rng := rand.New(rand.NewSource(3))
	n := insts[0].N()
	only := [][]int{make([]int, 0, n/2)}
	chosen := map[int]bool{}
	for i := 0; i < n/2; i++ {
		only[0] = append(only[0], i)
		chosen[i] = true
	}
	cfg := ML9().withDefaults()
	ds := TrainingSet(cfg, insts, -1, only, rng)
	if ds.Len() == 0 {
		t.Fatal("empty restricted training set")
	}
	// Positives require both sides selected; since matches pair low and
	// high indices arbitrarily, just confirm it is smaller than the
	// unrestricted set.
	full := TrainingSet(cfg, insts, -1, nil, rng)
	if ds.Len() >= full.Len() {
		t.Errorf("restricted set (%d) not smaller than full set (%d)", ds.Len(), full.Len())
	}
}
