package pairs

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/split"
)

// Shared test fixtures: one small suite, challenges per layer, generated
// once per test binary.
var (
	fixOnce sync.Once
	fixErr  error
	fixChs  map[int][]*split.Challenge
)

func challenges(t testing.TB, layer int) []*split.Challenge {
	t.Helper()
	fixOnce.Do(func() {
		designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: 0.2, Seed: 5})
		if err != nil {
			fixErr = err
			return
		}
		fixChs = map[int][]*split.Challenge{}
		for _, layer := range []int{6, 8} {
			for _, d := range designs {
				c, err := split.NewChallenge(d, layer)
				if err != nil {
					fixErr = err
					return
				}
				fixChs[layer] = append(fixChs[layer], c)
			}
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixChs[layer]
}

// bruteCandidates computes the candidate set of a by scanning all v-pins —
// the reference the spatial index must match exactly.
func bruteCandidates(inst *Instance, a int, radius float64, yLimit bool) []int {
	var out []int
	for b := 0; b < inst.N(); b++ {
		if b == a || !inst.Ex.Legal(a, b) {
			continue
		}
		if yLimit && inst.Ex.DiffVpinYOf(a, b) != 0 {
			continue
		}
		if radius >= 0 && inst.Ex.VpinDist(a, b) > radius {
			continue
		}
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

func indexCandidates(inst *Instance, a int, radius float64, yLimit bool) []int {
	var out []int
	for _, b := range inst.ix.appendAdmitted(nil, a, radius, yLimit) {
		out = append(out, int(b))
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVpinIndexMatchesBruteForce(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4]) // smallest design
	dieW := inst.DieWidth()
	rng := rand.New(rand.NewSource(1))
	radii := []float64{-1, 0, dieW * 0.01, dieW * 0.1, dieW * 0.5, dieW * 3}
	for trial := 0; trial < 40; trial++ {
		a := rng.Intn(inst.N())
		for _, r := range radii {
			for _, yLimit := range []bool{false, true} {
				want := bruteCandidates(inst, a, r, yLimit)
				got := indexCandidates(inst, a, r, yLimit)
				if !equalInts(got, want) {
					t.Fatalf("v-pin %d radius %.0f yLimit=%v: index %d candidates, brute force %d",
						a, r, yLimit, len(got), len(want))
				}
			}
		}
	}
}

func TestVpinIndexTopLayerYBuckets(t *testing.T) {
	// At split layer 8 every true match shares its partner's y, so the
	// y-limited candidate set must always contain the match.
	chs := challenges(t, 8)
	inst := New(chs[0])
	for a := 0; a < inst.N(); a++ {
		found := false
		for _, b := range inst.ix.appendAdmitted(nil, a, -1, true) {
			found = found || int(b) == inst.Match(a)
		}
		if !found {
			t.Fatalf("y-limited candidates of %d exclude its true match", a)
		}
	}
}

// refEnumerator reimplements the pre-refactor scalar enumeration order
// from the raw challenge: tile buckets in v-pin insertion order walked
// row-major over the radius's whole bounding square (or the exact-y bucket
// under the Y limit), with the legality check applied on top. The
// pipeline's Enumerate must reproduce it exactly: training's reservoir
// sampling draws negatives in this order, so a silent reordering would
// change every trained model and attack output. Retention does not depend
// on it (it is order-free).
type refEnumerator struct {
	ch     *split.Challenge
	tile   float64
	nx, ny int
	grid   [][]int32
}

func newRefEnumerator(ch *split.Challenge) *refEnumerator {
	die := ch.Design.Die()
	r := &refEnumerator{ch: ch, tile: float64(die.Width()) / 32}
	if r.tile <= 0 {
		r.tile = 1
	}
	r.nx = int(float64(die.Width())/r.tile) + 2
	r.ny = int(float64(die.Height())/r.tile) + 2
	r.grid = make([][]int32, r.nx*r.ny)
	for b := range ch.VPins {
		tx, ty := r.tileOf(r.x(b), r.y(b))
		r.grid[ty*r.nx+tx] = append(r.grid[ty*r.nx+tx], int32(b))
	}
	return r
}

func (r *refEnumerator) x(i int) float64 { return float64(r.ch.VPins[i].Pos.X) }
func (r *refEnumerator) y(i int) float64 { return float64(r.ch.VPins[i].Pos.Y) }

func (r *refEnumerator) tileOf(x, y float64) (int, int) {
	tx, ty := int(x/r.tile), int(y/r.tile)
	tx = max(0, min(tx, r.nx-1))
	ty = max(0, min(ty, r.ny-1))
	return tx, ty
}

func (r *refEnumerator) enumerate(a int, radius float64, yLimit bool) []int32 {
	ch := r.ch
	legal := func(b int) bool { return split.LegalPair(&ch.VPins[a], &ch.VPins[b]) }
	var out []int32

	if yLimit {
		// Exact-y buckets, v-pin insertion order.
		for b := range ch.VPins {
			if b == a || int64(ch.VPins[b].Pos.Y) != int64(ch.VPins[a].Pos.Y) {
				continue
			}
			if radius >= 0 {
				dx := r.x(a) - r.x(b)
				if dx < 0 {
					dx = -dx
				}
				if dx > radius {
					continue
				}
			}
			if legal(b) {
				out = append(out, int32(b))
			}
		}
		return out
	}
	if radius < 0 {
		for b := range ch.VPins {
			if b != a && legal(b) {
				out = append(out, int32(b))
			}
		}
		return out
	}

	// Tile buckets in insertion order, walked row-major over the window.
	tx0, ty0 := r.tileOf(r.x(a)-radius, r.y(a)-radius)
	tx1, ty1 := r.tileOf(r.x(a)+radius, r.y(a)+radius)
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			for _, b := range r.grid[ty*r.nx+tx] {
				if int(b) == a {
					continue
				}
				dx := r.x(a) - r.x(int(b))
				if dx < 0 {
					dx = -dx
				}
				dy := r.y(a) - r.y(int(b))
				if dy < 0 {
					dy = -dy
				}
				if dx+dy <= radius && legal(int(b)) {
					out = append(out, b)
				}
			}
		}
	}
	return out
}

// TestEnumerationOrderMatchesReference pins the clipped walk to the full
// square's scan, id for id, for every v-pin of every layer-6 and layer-8
// fixture design: at no radius, radius 0, half a tile, exact tile
// multiples and one ulp either side of them (where a point on a tile edge
// could be clipped away), exact pair distances, the loo-l6 radius (0.31 of
// the die), half the die and beyond the die diagonal — each with and
// without the Y limit.
func TestEnumerationOrderMatchesReference(t *testing.T) {
	for _, layer := range []int{6, 8} {
		for _, ch := range challenges(t, layer) {
			inst := New(ch)
			ref := newRefEnumerator(ch)
			if ref.tile != inst.ix.tile {
				t.Fatalf("%s: fixture index tile %g, reference %g", ch.Design.Name, inst.ix.tile, ref.tile)
			}
			die := ch.Design.Die()
			dieW, diag := float64(die.Width()), float64(die.Width()+die.Height())
			radii := []float64{-1, 0, ref.tile / 2, 0.31 * dieW, 0.5 * dieW, 1.5 * diag}
			for _, k := range []float64{1, 2, 5} {
				r := k * ref.tile
				radii = append(radii, math.Nextafter(r, 0), r, math.Nextafter(r, math.Inf(1)))
			}
			// Exact pair distances put points on the diamond's rim.
			for _, a := range []int{0, inst.N() / 2, inst.N() - 1} {
				radii = append(radii, inst.Ex.VpinDist(a, (a+7)%inst.N()))
			}
			for _, radius := range radii {
				for _, yLimit := range []bool{false, true} {
					f := Filter{inst: inst, radius: radius, yLimit: yLimit}
					for a := 0; a < inst.N(); a++ {
						var got []int32
						f.Enumerate(a, func(b int32) { got = append(got, b) })
						if want := ref.enumerate(a, radius, yLimit); !slices.Equal(got, want) {
							t.Fatalf("%s layer %d v-pin %d radius %g yLimit=%v: walk gave %d candidates, reference %d, or their order differs",
								ch.Design.Name, layer, a, radius, yLimit, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestEnumerateAgreesWithAdmits pins the contract that Enumerate visits
// exactly the candidates Admits accepts, whatever the filter settings.
func TestEnumerateAgreesWithAdmits(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4])
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := rng.Intn(inst.N())
		for _, radiusNorm := range []float64{-1, 0, 0.05} {
			for _, yLimit := range []bool{false, true} {
				f := inst.Filter(radiusNorm, yLimit)
				seen := map[int]bool{}
				f.Enumerate(a, func(b int32) { seen[int(b)] = true })
				for b := 0; b < inst.N(); b++ {
					if f.Admits(a, b) != seen[b] {
						t.Fatalf("v-pin (%d,%d) radiusNorm %g yLimit=%v: Admits=%v, enumerated=%v",
							a, b, radiusNorm, yLimit, f.Admits(a, b), seen[b])
					}
				}
			}
		}
	}
}

// TestFilterRadiusZero checks the degenerate neighborhood: radius 0 admits
// only exactly co-located pairs.
func TestFilterRadiusZero(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4])
	f := inst.Filter(0, false)
	for a := 0; a < inst.N(); a++ {
		f.Enumerate(a, func(b int32) {
			if inst.Ex.VpinDist(a, int(b)) != 0 {
				t.Fatalf("radius 0 admitted (%d,%d) at distance %g", a, b, inst.Ex.VpinDist(a, int(b)))
			}
		})
	}
}

// constScorer is a trivial scalar-only model for backend tests.
type constScorer struct{ p float64 }

func (c constScorer) Prob([]float64) float64 { return c.p }

// TestYLimitZeroCandidates restricts a challenge to two v-pins on
// different y tracks: the Y limit must then admit nothing, and an empty
// gather must score cleanly on both backends.
func TestYLimitZeroCandidates(t *testing.T) {
	chs := challenges(t, 6)
	ch := chs[4]
	// Find a legal pair on different y tracks.
	b := -1
	for i := 1; i < len(ch.VPins); i++ {
		if int64(ch.VPins[i].Pos.Y) != int64(ch.VPins[0].Pos.Y) &&
			split.LegalPair(&ch.VPins[0], &ch.VPins[i]) {
			b = i
			break
		}
	}
	if b < 0 {
		t.Skip("no off-track legal pair in fixture")
	}
	inst := New(ch.Restrict([]int{0, b}))
	f := inst.Filter(-1, true)
	f.Enumerate(0, func(int32) { t.Fatal("Y limit admitted an off-track candidate") })

	var g Gatherer
	g.Gather(f, 0)
	if len(g.Ids) != 0 {
		t.Fatalf("empty filter gathered %d candidates", len(g.Ids))
	}
	g.Score(ResolveBackend(constScorer{p: 0.9}, false))
	if len(g.P) != 0 {
		t.Fatalf("empty gather scored %d probabilities", len(g.P))
	}
}

// TestSingleVpinInstance builds a one-v-pin challenge via Restrict: the
// match is absent (-1), and every enumeration is empty.
func TestSingleVpinInstance(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4].Restrict([]int{0}))
	if inst.N() != 1 {
		t.Fatalf("restricted instance has %d v-pins, want 1", inst.N())
	}
	if m := inst.Match(0); m != -1 {
		t.Fatalf("Match(0) = %d, want -1 (partner excluded)", m)
	}
	for _, radiusNorm := range []float64{-1, 0, 0.5} {
		for _, yLimit := range []bool{false, true} {
			f := inst.Filter(radiusNorm, yLimit)
			f.Enumerate(0, func(b int32) {
				t.Fatalf("singleton instance enumerated candidate %d", b)
			})
			var g Gatherer
			g.Gather(f, 0)
			if len(g.Ids) != 0 {
				t.Fatalf("singleton instance gathered %d candidates", len(g.Ids))
			}
		}
	}
}

// TestRestrictKeepsPairs checks that Restrict remaps surviving partners and
// drops excluded ones.
func TestRestrictKeepsPairs(t *testing.T) {
	chs := challenges(t, 6)
	ch := chs[4]
	m := ch.VPins[0].Match
	// Pick a third v-pin whose partner is outside the kept set.
	c := -1
	for i := range ch.VPins {
		if i != 0 && i != m && ch.VPins[i].Match != 0 && ch.VPins[i].Match != m {
			c = i
			break
		}
	}
	if c < 0 {
		t.Fatal("fixture has no v-pin outside the first pair")
	}
	inst := New(ch.Restrict([]int{0, m, c}))
	if got := inst.Match(0); got != 1 {
		t.Errorf("Match(0) = %d, want 1 (partner remapped)", got)
	}
	if got := inst.Match(1); got != 0 {
		t.Errorf("Match(1) = %d, want 0", got)
	}
	if got := inst.Match(2); got != -1 {
		t.Errorf("Match(2) = %d, want -1 (partner excluded)", got)
	}
}

// TestResolveBackendClassification pins the resolver's rules: every model
// gets the one batched backend; a level with its own ProbBatch scores
// through it, a Prob-only level (alone or inside a two-level composition)
// through the row adapter, and forceScalar adapts the whole model.
func TestResolveBackendClassification(t *testing.T) {
	scalar := constScorer{p: 0.7}
	batch := constBatchScorer{p: 0.9}
	mixed := &TwoLevel{L1: batch, L2: scalar}
	for _, tc := range []struct {
		name   string
		model  Scorer
		force  bool
		b1, b2 BatchScorer
	}{
		{"prob-only", scalar, false, rowScorer{scalar}, nil},
		{"batch", batch, false, batch, nil},
		{"two-level mixed", mixed, false, batch, rowScorer{scalar}},
		{"two-level prob-only", &TwoLevel{L1: scalar, L2: scalar}, false, rowScorer{scalar}, rowScorer{scalar}},
		{"forced", batch, true, rowScorer{batch}, nil},
		{"forced two-level", mixed, true, rowScorer{mixed}, nil},
	} {
		b := ResolveBackend(tc.model, tc.force).(*batchBackend)
		if b.b1 != tc.b1 || b.b2 != tc.b2 {
			t.Errorf("%s: levels %#v / %#v, want %#v / %#v", tc.name, b.b1, b.b2, tc.b1, tc.b2)
		}
	}
}

// TestResolveBackendKeepsModelProbBatch: the engine's two batch-capable
// model types score through their own ProbBatch, at either level, never
// through the row adapter.
func TestResolveBackendKeepsModelProbBatch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := &ml.Dataset{}
	for i := 0; i < 200; i++ {
		x := []float64{r.Float64(), r.Float64()}
		ds.Add(x, x[0]+0.1*x[1] > 0.5)
	}
	bag, err := ml.TrainBagging(ds, 3, ml.TreeOptions{}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := ml.TrainMLP(ds, ml.MLPOptions{Epochs: 2}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []BatchScorer{bag.Compile(), nn} {
		one := ResolveBackend(m, false).(*batchBackend)
		if one.b1 != m {
			t.Errorf("%T scores through %T, not its own ProbBatch", m, one.b1)
		}
		two := ResolveBackend(&TwoLevel{L1: m, L2: m}, false).(*batchBackend)
		if two.b1 != m || two.b2 != m {
			t.Errorf("two-level %T scores through %T / %T, not its own ProbBatch", m, two.b1, two.b2)
		}
	}
}

// TestNewAllDeterministicAcrossWorkers checks that parallel instance
// preparation yields the same instances as the serial build.
func TestNewAllDeterministicAcrossWorkers(t *testing.T) {
	chs := challenges(t, 6)
	serial := NewAll(chs, 1)
	parallel := NewAll(chs, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("serial built %d instances, parallel %d", len(serial), len(parallel))
	}
	row1 := make([]float64, features.NumFeatures)
	row2 := make([]float64, features.NumFeatures)
	for i := range serial {
		if serial[i].Ch != parallel[i].Ch {
			t.Fatalf("instance %d bound to a different challenge", i)
		}
		a, m := 0, serial[i].Match(0)
		if m < 0 {
			continue
		}
		serial[i].Ex.Pair(a, m, row1)
		parallel[i].Ex.Pair(a, m, row2)
		for f := range row1 {
			if row1[f] != row2[f] {
				t.Fatalf("instance %d feature %d differs: %g vs %g", i, f, row1[f], row2[f])
			}
		}
	}
}
