package pairs

// Pair sharing: ScoreLists gathers and scores each admitted unordered pair
// once and retains it into both endpoints' lists. These tests pin the
// premise (admission is symmetric and feature rows are bit-symmetric) and
// the sharing itself: each pair reaches the kernel exactly once, and the
// lists and truth probabilities equal per-v-pin scoring of whole lists.

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/features"
	"repro/internal/geom"
)

// TestPairSymmetryExhaustive checks, for every v-pin of a standard fixture
// under the radius, no-radius and Y-limit filters, that b is enumerated
// for a exactly when a is enumerated for b, and that Pair(a, b) and
// Pair(b, a) agree bit for bit at both row widths.
func TestPairSymmetryExhaustive(t *testing.T) {
	inst := New(challenges(t, 6)[4])
	n := inst.N()
	ab := make([]float64, features.NumAll)
	ba := make([]float64, features.NumAll)
	for _, tc := range []struct {
		name       string
		radiusNorm float64
		yLimit     bool
	}{
		{"radius", 0.15, false},
		{"no-radius", -1, false},
		{"y-limit", -1, true},
	} {
		f := inst.Filter(tc.radiusNorm, tc.yLimit)
		admitted := make([]bool, n*n)
		for a := 0; a < n; a++ {
			f.Enumerate(a, func(b int32) { admitted[a*n+int(b)] = true })
		}
		pairs := 0
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if admitted[a*n+b] != admitted[b*n+a] {
					t.Fatalf("%s: (%d,%d) admitted %v but (%d,%d) admitted %v",
						tc.name, a, b, admitted[a*n+b], b, a, admitted[b*n+a])
				}
				if !admitted[a*n+b] || b < a {
					continue
				}
				pairs++
				for _, width := range []int{features.NumFeatures, features.NumAll} {
					inst.Ex.Pair(a, b, ab[:width])
					inst.Ex.Pair(b, a, ba[:width])
					for k := range width {
						if math.Float64bits(ab[k]) != math.Float64bits(ba[k]) {
							t.Fatalf("%s width %d: feature %d of (%d,%d) is %v, of (%d,%d) %v",
								tc.name, width, k, a, b, ab[k], b, a, ba[k])
						}
					}
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: fixture admits no pairs", tc.name)
		}
	}
}

// pairCounter is a Scorer that identifies the unordered pair behind every
// row it scores and counts it. It runs on pairIdentityInstance, whose rows
// carry a+b in TotalWirelength and |a-b| in DiffPinX. Its probability is a
// coarse grid of the row, so lists hold plenty of ties.
type pairCounter struct {
	n    int
	seen []atomic.Int32 // seen[lo*n+hi]: times {lo, hi} was scored
}

func newPairCounter(n int) *pairCounter {
	return &pairCounter{n: n, seen: make([]atomic.Int32, n*n)}
}

func (c *pairCounter) Prob(x []float64) float64 {
	sum, diff := x[features.TotalWirelength], x[features.DiffPinX]
	lo, hi := int((sum-diff)/2), int((sum+diff)/2)
	c.seen[lo*c.n+hi].Add(1)
	return math.Mod(x[features.ManhattanVpin], 8) / 8
}

// batchPairCounter is pairCounter through the batched backend.
type batchPairCounter struct{ *pairCounter }

func (c batchPairCounter) ProbBatch(rows []float64, stride int, out []float64) {
	for r := range out {
		out[r] = c.Prob(rows[r*stride : (r+1)*stride])
	}
}

// pairIdentityInstance is a fixture instance whose feature rows name their
// pair: v-pin i gets wirelength i and pin x i. Admission reads neither
// (positions and driver sides are untouched), so the filters behave as on
// the fixture.
func pairIdentityInstance(t *testing.T) *Instance {
	ch := *challenges(t, 6)[4]
	ch.VPins = slices.Clone(ch.VPins)
	for i := range ch.VPins {
		ch.VPins[i].Wirelength = geom.Coord(i)
		ch.VPins[i].PinLoc = geom.Pt(geom.Coord(i), 0)
	}
	return New(&ch)
}

// referenceTruthP is each target's true-pair probability from scoring its
// whole list on its own.
func referenceTruthP(f Filter, backend Backend, targets []int) []float32 {
	inst := f.Instance()
	out := make([]float32, inst.N())
	for a := range out {
		out[a] = -1
	}
	for _, a := range targets {
		var g Gatherer
		g.Gather(f, a)
		g.Score(backend)
		for k, b := range g.Ids {
			if int(b) == inst.Match(a) {
				out[a] = float32(g.P[k])
			}
		}
	}
	return out
}

func allVpins(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPairSharingScoresEachPairOnce runs ScoreLists over full and subset
// target sets, caps down to 1, and every pool and shard shape, for a batch
// scorer and for a Prob-only scorer the backend adapts. Every admitted
// unordered pair with at least one target endpoint must reach the kernel
// exactly once and no other pair at all; lists and truth probabilities
// must equal per-v-pin scoring, and the counters must read directed pairs
// and actual kernel rows.
func TestPairSharingScoresEachPairOnce(t *testing.T) {
	inst := pairIdentityInstance(t)
	n := inst.N()
	f := inst.Filter(0.2, false)
	subset := []int{0, 3, 5, 8, n / 3, n / 2, n/2 + 1, n - 1}
	for _, tc := range []struct {
		name    string
		targets []int
		capPer  int
	}{
		{"all", nil, 12},
		{"all-uncapped", nil, n},
		{"subset", subset, 7},
		{"cap-one", subset, 1},
		{"all-cap-one", nil, 1},
	} {
		targets := tc.targets
		if targets == nil {
			targets = allVpins(n)
		}
		isTarget := make([]bool, n)
		for _, a := range targets {
			isTarget[a] = true
		}
		// want[a*n+b], a < b: times the kernel must score {a, b}.
		want := make([]int32, n*n)
		var directed, rows int64
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if !f.Admits(a, b) {
					continue
				}
				if isTarget[a] || isTarget[b] {
					want[a*n+b] = 1
					rows++
				}
				if isTarget[a] {
					directed++
				}
				if isTarget[b] {
					directed++
				}
			}
		}
		for _, batched := range []bool{false, true} {
			counter := newPairCounter(n)
			var sc Scorer = counter
			if batched {
				sc = batchPairCounter{counter}
			}
			backend := ResolveBackend(sc, false)
			wantLists := referenceLists(f, backend, tc.targets, tc.capPer)
			wantTruth := referenceTruthP(f, backend, targets)
			for _, workers := range []int{1, 2, 4} {
				for _, shard := range []int{1, 17, 0} {
					for i := range counter.seen {
						counter.seen[i].Store(0)
					}
					lists, stats := ScoreLists(f, backend, StreamOptions{
						Targets: tc.targets, Cap: tc.capPer, Workers: workers, ShardVpins: shard})
					label := func() string {
						return tc.name + map[bool]string{false: " prob-only", true: " batch"}[batched]
					}
					for a := 0; a < n; a++ {
						for b := a + 1; b < n; b++ {
							if got := counter.seen[a*n+b].Load(); got != want[a*n+b] {
								t.Fatalf("%s workers %d shard %d: pair (%d,%d) scored %d times, want %d",
									label(), workers, shard, a, b, got, want[a*n+b])
							}
						}
					}
					if !equalLists(lists, wantLists) {
						t.Fatalf("%s workers %d shard %d: lists differ from per-v-pin scoring",
							label(), workers, shard)
					}
					if !slices.Equal(stats.TruthP, wantTruth) {
						t.Fatalf("%s workers %d shard %d: TruthP differs from per-v-pin scoring",
							label(), workers, shard)
					}
					if stats.Pairs != directed || stats.BatchRows != rows {
						t.Fatalf("%s workers %d shard %d: %d pairs, %d batch rows; want %d directed pairs, %d rows",
							label(), workers, shard, stats.Pairs, stats.BatchRows, directed, rows)
					}
				}
			}
		}
	}
}

// TestPairSharingRankedMatchesReference pins the list-wise exception: the
// softmax head normalises over a v-pin's whole list, so through ScoreLists
// every target must score its own full list — lists and truth
// probabilities equal per-v-pin sort-everything scoring, and every
// admitted pair of two targets is scored once from each side.
func TestPairSharingRankedMatchesReference(t *testing.T) {
	inst := pairIdentityInstance(t)
	n := inst.N()
	f := inst.Filter(0.2, false)
	counter := newPairCounter(n)
	backend := Ranked(ResolveBackend(batchPairCounter{counter}, false))
	subset := []int{1, 2, 4, n / 2, n - 2}
	for _, targets := range [][]int{nil, subset} {
		for _, capPer := range []int{1, 9, n} {
			want := referenceLists(f, backend, targets, capPer)
			all := targets
			if all == nil {
				all = allVpins(n)
			}
			wantTruth := referenceTruthP(f, backend, all)
			for i := range counter.seen {
				counter.seen[i].Store(0)
			}
			got, stats := ScoreLists(f, backend, StreamOptions{Targets: targets, Cap: capPer, Workers: 3, ShardVpins: 5})
			if !equalLists(got, want) {
				t.Fatalf("targets %v cap %d: ranked lists differ from the per-v-pin reference", targets, capPer)
			}
			if !slices.Equal(stats.TruthP, wantTruth) {
				t.Fatalf("targets %v cap %d: ranked TruthP differs from the per-v-pin reference", targets, capPer)
			}
			if stats.BatchRows != stats.Pairs {
				t.Fatalf("targets %v cap %d: ranked run scored %d rows for %d directed pairs",
					targets, capPer, stats.BatchRows, stats.Pairs)
			}
		}
	}
	// Every admitted pair of two targets was scored from both sides.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if f.Admits(a, b) && slices.Contains(subset, a) && slices.Contains(subset, b) {
				if got := counter.seen[a*n+b].Load(); got != 2 {
					t.Fatalf("ranked pair (%d,%d) scored %d times, want 2", a, b, got)
				}
			}
		}
	}
}

// TestPairSharingAllocsFlat pins the one-arena design: the allocation
// count of one ScoreLists call is fixed by the pool, not by how many
// targets or regions it scores.
func TestPairSharingAllocsFlat(t *testing.T) {
	inst := New(challenges(t, 6)[4])
	f := inst.Filter(0.2, false)
	backend := ResolveBackend(constBatchScorer{p: 0.25}, false)
	n := inst.N()
	allocs := func(targets []int) float64 {
		return testing.AllocsPerRun(10, func() {
			ScoreLists(f, backend, StreamOptions{Targets: targets, Cap: 16, Workers: 1, ShardVpins: 8})
		})
	}
	few := allocs([]int{0, 1, n / 2, n - 1})
	all := allocs(nil)
	if all != few {
		t.Errorf("a call over %d targets makes %.0f allocations, over 4 targets %.0f", n, all, few)
	}
}
