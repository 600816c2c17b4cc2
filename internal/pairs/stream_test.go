package pairs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestLoCCapEdges(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{n: 1000, frac: 0.15, want: 150}, // plain fraction
		{n: 10, frac: 0.15, want: 10},    // floor of 32 clipped to n < 32
		{n: 31, frac: 1.0, want: 31},     // n just under the floor
		{n: 100, frac: 2.0, want: 100},   // frac*n > n caps at n
		{n: 100, frac: 0, want: 32},      // zero frac still keeps the floor
		{n: 1000, frac: 0, want: 32},
		{n: 0, frac: 0.15, want: 0}, // degenerate empty design
		{n: 33, frac: 0.001, want: 32},
	}
	for _, c := range cases {
		if got := LoCCap(c.n, c.frac); got != c.want {
			t.Errorf("LoCCap(%d, %g) = %d, want %d", c.n, c.frac, got, c.want)
		}
	}
}

// randomCandidates builds a candidate set with unique Other and heavy P
// ties (eight distinct probabilities), the regime where retention order
// matters most.
func randomCandidates(rng *rand.Rand, n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{
			Other: int32(i),
			P:     float32(rng.Intn(8)) / 8,
			D:     float32(rng.Intn(100)),
		}
	}
	return out
}

// TestTopKMatchesSortEverything pins the heap's contract: for any push
// order, the retained set equals the first Cap entries of sorting the whole
// input — including ties at exactly the capacity boundary.
func TestTopKMatchesSortEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h TopK
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		cands := randomCandidates(rng, n)
		want := slices.Clone(cands)
		slices.SortFunc(want, CompareCandidates)
		for _, capacity := range []int{1, 2, n / 2, n - 1, n, n + 10} {
			if capacity < 1 {
				continue
			}
			rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			h.Reset(capacity)
			for _, c := range cands {
				h.Push(c)
			}
			got := h.Sorted()
			wantK := want
			if capacity < n {
				wantK = want[:capacity]
			}
			if !slices.Equal(got, wantK) {
				t.Fatalf("trial %d cap %d: heap retained %v, sort-everything %v",
					trial, capacity, got, wantK)
			}
		}
	}
}

// TestRankKeyOrder pins the packed key the heap and the final sort compare:
// ascending rankKey must be CompareCandidates order for every pair of
// candidates — the two-level gate's -1, both zeros (equal under the
// order), subnormals, and ties broken by Other — and rankP must give P
// back, with −0 read back as +0.
func TestRankKeyOrder(t *testing.T) {
	ps := []float32{float32(math.Inf(-1)), -2, -1, -0.5, -math.SmallestNonzeroFloat32,
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, 0.25, 0.5, 1, 2,
		float32(math.Inf(1))}
	var cands []Candidate
	for _, p := range ps {
		for _, o := range []int32{0, 1, 7, math.MaxInt32} {
			cands = append(cands, Candidate{Other: o, P: p})
		}
	}
	sign := func(v int) int { return min(max(v, -1), 1) }
	for _, x := range cands {
		for _, y := range cands {
			kx, ky := rankKey(x), rankKey(y)
			got := 0
			if kx < ky {
				got = -1
			} else if kx > ky {
				got = 1
			}
			if want := sign(CompareCandidates(x, y)); got != want {
				t.Fatalf("%+v vs %+v: rank keys order %d, CompareCandidates %d", x, y, got, want)
			}
		}
		want := x.P
		if want == 0 {
			want = 0 // −0 reads back as +0
		}
		if got := rankP(rankKey(x)); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("rankP(rankKey(%+v)) = %v, want %v", x, got, want)
		}
	}
}

// TestTopKResetReuse checks that a recycled heap carries nothing over from
// its previous use.
func TestTopKResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reused TopK
	for round := 0; round < 20; round++ {
		cands := randomCandidates(rng, 64)
		capacity := 1 + rng.Intn(70)
		var fresh TopK
		fresh.Reset(capacity)
		reused.Reset(capacity)
		for _, c := range cands {
			fresh.Push(c)
			reused.Push(c)
		}
		if !slices.Equal(slices.Clone(fresh.Sorted()), reused.Sorted()) {
			t.Fatalf("round %d: reused heap diverged from a fresh one", round)
		}
	}
}

// TestTopKSteadyStateAllocs pins the scoring loop's heap behavior: once the
// backing array has grown to capacity, a Reset/Push/Sorted cycle allocates
// nothing.
func TestTopKSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cands := randomCandidates(rng, 256)
	var h TopK
	cycle := func() {
		h.Reset(32)
		for _, c := range cands {
			h.Push(c)
		}
		h.Sorted()
	}
	cycle() // grow the backing array once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state TopK cycle allocates %.1f times per run, want 0", allocs)
	}
}

// tieScorer is a deterministic feature-dependent scorer that lands on a
// coarse probability grid, forcing plenty of P ties across candidates.
type tieScorer struct{}

func (tieScorer) Prob(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return math.Mod(math.Abs(s), 16) / 16
}

// referenceLists scores every target serially with a fresh gatherer and a
// full sort — the brute-force shape ScoreLists must reproduce exactly.
func referenceLists(f Filter, backend Backend, targets []int, capPer int) [][]Candidate {
	inst := f.Instance()
	lists := make([][]Candidate, inst.N())
	if targets == nil {
		targets = make([]int, inst.N())
		for i := range targets {
			targets[i] = i
		}
	}
	for _, a := range targets {
		var g Gatherer
		g.Gather(f, a)
		g.Score(backend)
		all := make([]Candidate, len(g.Ids))
		for k, b := range g.Ids {
			all[k] = Candidate{Other: b, P: float32(g.P[k]), D: g.D[k]}
		}
		slices.SortFunc(all, CompareCandidates)
		if len(all) > capPer {
			all = all[:capPer]
		}
		lists[a] = all
	}
	return lists
}

func equalLists(a, b [][]Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestScoreListsMatchesReference checks the streamed, sharded, heap-bounded
// engine against serial sort-everything scoring, over full and subset
// target sets.
func TestScoreListsMatchesReference(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4])
	f := inst.Filter(inst.DieWidth()*0.15, false)
	backend := ResolveBackend(tieScorer{}, false)

	subset := []int{0, 3, 5, inst.N() - 1, inst.N() / 2}
	for _, tc := range []struct {
		name    string
		targets []int
		capPer  int
	}{
		{name: "all-capped", targets: nil, capPer: 10},
		{name: "all-uncapped", targets: nil, capPer: inst.N()},
		{name: "subset", targets: subset, capPer: 7},
		{name: "cap-one", targets: subset, capPer: 1},
	} {
		want := referenceLists(f, backend, tc.targets, tc.capPer)
		got, stats := ScoreLists(f, backend, StreamOptions{
			Targets: tc.targets, Cap: tc.capPer, Workers: 3, ShardVpins: 5})
		if !equalLists(got, want) {
			t.Fatalf("%s: streamed lists diverge from the serial reference", tc.name)
		}
		var retained int64
		for _, l := range got {
			retained += int64(len(l))
		}
		if stats.Retained != retained {
			t.Errorf("%s: stats.Retained = %d, lists hold %d", tc.name, stats.Retained, retained)
		}
	}
}

// TestScoreListsShardInvariance pins the bit-identity guarantee: worker
// count and shard size change scheduling, never the retained lists or the
// pair count.
func TestScoreListsShardInvariance(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4])
	f := inst.Filter(inst.DieWidth()*0.2, false)
	backend := ResolveBackend(tieScorer{}, false)

	base, baseStats := ScoreLists(f, backend, StreamOptions{Cap: 12, Workers: 1})
	for _, opt := range []StreamOptions{
		{Cap: 12, Workers: 4},
		{Cap: 12, Workers: 4, ShardVpins: 1},
		{Cap: 12, Workers: 2, ShardVpins: 17},
		{Cap: 12, Workers: 0, ShardVpins: 1 << 20},
	} {
		got, stats := ScoreLists(f, backend, opt)
		if !equalLists(got, base) {
			t.Fatalf("workers=%d shard=%d: lists diverge from the single-worker run",
				opt.Workers, opt.ShardVpins)
		}
		if stats.Pairs != baseStats.Pairs || stats.Retained != baseStats.Retained {
			t.Errorf("workers=%d shard=%d: stats (%d pairs, %d retained) != base (%d, %d)",
				opt.Workers, opt.ShardVpins, stats.Pairs, stats.Retained,
				baseStats.Pairs, baseStats.Retained)
		}
	}
}

// TestRegionsCoverTargets checks the spatial sharder's partition contract:
// every target appears in exactly one region, and region sizes respect the
// requested bound.
func TestRegionsCoverTargets(t *testing.T) {
	chs := challenges(t, 6)
	inst := New(chs[4])
	n := inst.N()
	subset := []int{1, 2, n - 1, n / 3, n / 2}
	for _, targets := range [][]int{nil, subset} {
		member := make([]bool, n)
		for a := range member {
			member[a] = targets == nil || slices.Contains(targets, a)
		}
		for _, size := range []int{1, 7, 64, 100000} {
			regions := inst.ix.regions(member, size)
			seen := map[int32]int{}
			for _, reg := range regions {
				if len(reg) == 0 || len(reg) > size {
					t.Fatalf("size %d: region of %d v-pins", size, len(reg))
				}
				for _, a := range reg {
					seen[a]++
				}
			}
			want := n
			if targets != nil {
				want = len(targets)
			}
			if len(seen) != want {
				t.Fatalf("size %d: regions cover %d v-pins, want %d", size, len(seen), want)
			}
			for a, count := range seen {
				if count != 1 {
					t.Fatalf("size %d: v-pin %d appears in %d regions", size, a, count)
				}
			}
		}
	}
}

// sortKeyLists builds rank-key lists of the given length in the shapes the
// radix sort must handle: probabilities drawn from special values (±0,
// ±Inf, subnormals, the gate's -1) and a coarse grid, so many keys share P
// and differ only in Other; all keys sharing one P; and ids that share
// their high bytes.
func sortKeyLists(rng *rand.Rand, n int) [][]uint64 {
	specials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1, 0.5, 1}
	ids := rng.Perm(max(2*n, 1<<20))[:n]
	var mixed, sameP, denseIDs []uint64
	for i, o := range ids {
		p := specials[rng.Intn(len(specials))]
		if rng.Intn(2) == 0 {
			p = float32(rng.Intn(64)) / 64
		}
		mixed = append(mixed, rankKey(Candidate{Other: int32(o), P: p}))
		sameP = append(sameP, rankKey(Candidate{Other: int32(o), P: 0.75}))
		denseIDs = append(denseIDs, rankKey(Candidate{Other: int32(n - 1 - i), P: float32(rng.Intn(4)) / 4}))
	}
	return [][]uint64{mixed, sameP, denseIDs}
}

// TestSortKeysMatchesSort pins the radix sort to slices.Sort at both sides
// of the small-list cutoff and at a long list.
func TestSortKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, radixMin - 1, radixMin, radixMin + 1, 10_000} {
		for shape, keys := range sortKeyLists(rng, n) {
			want := slices.Clone(keys)
			slices.Sort(want)
			tmp := make([]uint64, n)
			if got := sortKeys(slices.Clone(keys), tmp); !slices.Equal(got, want) {
				t.Fatalf("n=%d shape %d: radix order differs from slices.Sort", n, shape)
			}
		}
	}
}

// BenchmarkSortKeys times one list's key sort on both sides of radixMin:
// the radix sort against slices.Sort, over ensemble-like probabilities
// (multiples of 1/1000) and distinct ids of a few-thousand-v-pin design.
// Each iteration sorts the next of 512 different lists, so the branch
// predictor cannot learn one list's comparisons, as it would replaying a
// single list.
func BenchmarkSortKeys(b *testing.B) {
	for _, n := range []int{16, 32, 48, 64, 96, 128, 256, 1024} {
		rng := rand.New(rand.NewSource(1))
		lists := make([][]uint64, 512)
		for l := range lists {
			for _, o := range rng.Perm(4096)[:n] {
				lists[l] = append(lists[l], rankKey(Candidate{Other: int32(o), P: float32(rng.Intn(1000)) / 1000}))
			}
		}
		work, tmp := make([]uint64, n), make([]uint64, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, lists[i%len(lists)])
				radixKeys(work, tmp)
			}
		})
		b.Run(fmt.Sprintf("slices/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, lists[i%len(lists)])
				slices.Sort(work)
			}
		})
	}
}
