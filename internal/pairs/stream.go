package pairs

import (
	"slices"
	"sync"
	"time"

	"repro/internal/par"
)

// StreamOptions configures one ScoreLists run.
type StreamOptions struct {
	// Targets lists the v-pins to score; nil scores every v-pin of the
	// instance. Candidates are always drawn from the whole design.
	Targets []int
	// Cap bounds each retained candidate list (see LoCCap and any absolute
	// cap the caller layers on top). Values below 1 are clamped to 1.
	Cap int
	// ShardVpins is the region size: how many target v-pins a worker takes
	// at a time. Zero picks a size that gives every worker several regions
	// for load balance. The retained lists are bit-identical for every
	// shard size.
	ShardVpins int
	// Workers bounds the scoring goroutines; zero or negative selects
	// GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
	// Stride is the feature-row width each worker's Gatherer uses; zero
	// selects features.NumFeatures. Callers whose feature set reaches into
	// the routing-hint block pass features.Width of their set.
	Stride int
}

// StreamStats reports what one ScoreLists run did.
type StreamStats struct {
	// Pairs counts the directed admitted pairs (a, b) over every target a:
	// the sum of the targets' candidate counts. A pair of two targets
	// counts twice, once per list, although it is scored once.
	Pairs int64
	// Batches and BatchRows count the ProbBatch calls and rows the run made
	// (zero on the scalar path): the kernel work actually done. With pair
	// sharing, full-design runs score Pairs/2 level-1 rows.
	Batches, BatchRows int64
	// Regions is the number of spatial shards the targets were split into.
	Regions int
	// Retained counts the candidates kept across all lists after the cap.
	Retained int64
	// TruthP[a] is the probability of target a's true pair (a, Match(a)),
	// or -1 when a is not a target or its true pair is not admitted. It is
	// taken when the pair is scored, so it survives a truth the cap cuts
	// from the list.
	TruthP []float32
	// Ledger is the run's time per phase, summed over its workers.
	Ledger Ledger
}

// Ledger is ScoreLists' own account of where its time went, per phase and
// summed over the workers, so with several workers it adds up to more than
// the call's wall time. It is execution-shape data, never part of a
// result.
type Ledger struct {
	// Count is the counting pass: every target's candidate walk.
	Count time.Duration
	// Gather is each target's walk again plus its owned pairs' feature
	// rows.
	Gather time.Duration
	// Kernel is the backend scoring the gathered rows.
	Kernel time.Duration
	// Retain is the pushes of the scores into the windows, locks included.
	Retain time.Duration
	// Sort is each window's final sort and the rebuild of its candidates.
	Sort time.Duration
}

// ScoreLists is the shared candidate-scoring engine: it scores every
// admitted candidate pair of the target v-pins through the backend and
// returns the per-v-pin retained candidate lists in canonical
// CompareCandidates order. Both the attack engine's scoring stage and the
// two-level training stage ride this one implementation.
//
// Each admitted pair is gathered and scored once. Every feature is
// symmetric in the pair and Filter admits (a, b) exactly when it admits
// (b, a), so under a pairwise backend — one whose probability reads the
// pair's feature row alone — target a scores candidate b only when b is not
// a target or b > a, and retains the result into both lists. The list-wise
// Ranked head normalises over a whole list, so there every target scores
// its own list and keeps it to itself.
//
// Memory is one arena that is exactly the returned lists: a counting pass
// sizes each target's window at min(candidates, Cap) and the lists alias
// it. Targets are streamed one spatial region at a time on internal/par;
// a push into another target's window takes that target's lock. Retention
// is order-free — a window keeps exactly the first Cap entries of the
// canonical total order whatever the arrival order — so the returned lists
// are bit-identical at any worker count and any shard size.
func ScoreLists(f Filter, backend Backend, opts StreamOptions) ([][]Candidate, StreamStats) {
	inst := f.Instance()
	n := inst.N()
	lists := make([][]Candidate, n)
	s := &stream{
		f:     f,
		wins:  make([]TopK, n),
		locks: make([]sync.Mutex, n),
		truth: make([]float32, n),
	}
	for a := range s.truth {
		s.truth[a] = -1
	}
	stats := StreamStats{TruthP: s.truth}
	target := make([]bool, n)
	total := n
	if opts.Targets == nil {
		for a := range target {
			target[a] = true
		}
	} else {
		for _, a := range opts.Targets {
			target[a] = true
		}
		total = len(opts.Targets)
	}
	if total == 0 {
		return lists, stats
	}
	workers := par.Workers(opts.Workers, total)
	regions := inst.ix.regions(target, shardSize(opts.ShardVpins, total, workers))
	stats.Regions = len(regions)
	ws := make([]worker, par.Workers(workers, len(regions)))

	// Counting pass: every target's admitted candidate count, walked into
	// the worker's id buffer, which fits any target's candidates.
	deg := make([]int32, n)
	for w := range ws {
		ws[w].g.Ids = make([]int32, 0, n)
	}
	par.For(len(regions), workers, func(w, r int) error {
		t0 := time.Now()
		ids := ws[w].g.Ids
		for _, a := range regions[r] {
			deg[a] = int32(len(f.AppendAdmitted(ids, int(a))))
		}
		ws[w].led.Count += time.Since(t0)
		return nil
	})
	capPer := max(opts.Cap, 1)
	var size, maxDeg int
	for _, reg := range regions {
		for _, a := range reg {
			size += min(int(deg[a]), capPer)
			maxDeg = max(maxDeg, int(deg[a]))
			stats.Pairs += int64(deg[a])
		}
	}
	arena := make([]Candidate, size)
	off := 0
	for _, reg := range regions {
		for _, a := range reg {
			w := min(int(deg[a]), capPer)
			s.wins[a] = TopK{Cap: w, c: arena[off : off : off+w]}
			off += w
		}
	}
	stats.Retained = int64(size)

	shared := target
	if !backend.pairwise() {
		shared = nil
	}
	for w := range ws {
		ws[w].g.Stride = opts.Stride
		ws[w].g.reserve(maxDeg)
	}
	par.For(len(regions), workers, func(w, r int) error {
		for _, a := range regions[r] {
			s.score(&ws[w], backend, int(a), shared)
		}
		return nil
	})

	for w := range ws {
		ws[w].keys = make([]uint64, min(maxDeg, capPer))
		ws[w].tmp = make([]uint64, min(maxDeg, capPer))
	}
	par.For(len(regions), workers, func(w, r int) error {
		t0 := time.Now()
		for _, a := range regions[r] {
			lists[a] = s.sorted(int(a), ws[w].keys, ws[w].tmp)
		}
		ws[w].led.Sort += time.Since(t0)
		return nil
	})
	for w := range ws {
		stats.Batches += ws[w].g.Batches
		stats.BatchRows += ws[w].g.BatchRows
		stats.Ledger.add(ws[w].led)
	}
	return lists, stats
}

// worker is one scoring goroutine's reusable state: its gather arena (whose
// id buffer the counting pass walks into), its sort scratch and its ledger.
type worker struct {
	g         Gatherer
	keys, tmp []uint64
	led       Ledger
}

func (l *Ledger) add(o Ledger) {
	l.Count += o.Count
	l.Gather += o.Gather
	l.Kernel += o.Kernel
	l.Retain += o.Retain
	l.Sort += o.Sort
}

// stream is one ScoreLists run's shared state. wins[a] is target a's
// window: a TopK over exactly min(candidates, Cap) slots of the arena
// (none for a target without candidates, which no push reaches), guarded
// by locks[a]. truth[a] has exactly one writer, the scorer of a's true
// pair.
type stream struct {
	f     Filter
	wins  []TopK
	locks []sync.Mutex
	truth []float32
}

// score gathers and scores the pairs target a owns and retains each into
// a's window and, for a shared partner, into the partner's. shared is nil
// under a list-wise backend.
func (s *stream) score(wk *worker, backend Backend, a int, shared []bool) {
	g := &wk.g
	t0 := time.Now()
	g.gather(s.f, a, shared)
	t1 := time.Now()
	g.Score(backend)
	t2 := time.Now()
	match := s.f.inst.match
	s.locks[a].Lock()
	for k, b := range g.Ids {
		if b == match[a] {
			s.truth[a] = float32(g.P[k])
		}
		s.wins[a].Push(Candidate{Other: b, P: float32(g.P[k])})
	}
	s.locks[a].Unlock()
	if shared != nil {
		for k, b := range g.Ids {
			if !shared[b] {
				continue
			}
			if match[b] == int32(a) {
				s.truth[b] = float32(g.P[k])
			}
			s.locks[b].Lock()
			s.wins[b].Push(Candidate{Other: int32(a), P: float32(g.P[k])})
			s.locks[b].Unlock()
		}
	}
	t3 := time.Now()
	wk.led.Gather += t1.Sub(t0)
	wk.led.Kernel += t2.Sub(t1)
	wk.led.Retain += t3.Sub(t2)
}

// sorted returns target a's window in canonical order, through a radix sort
// of its rank keys in the scratch keys and tmp. Each candidate is rebuilt
// from its key: Other and P are in the key, and D, which the windows do
// not carry, is computed here for the retained candidates only.
func (s *stream) sorted(a int, keys, tmp []uint64) []Candidate {
	l := s.wins[a].c
	if len(l) != s.wins[a].Cap {
		panic("pairs: a candidate window missed arrivals; the filter is not symmetric")
	}
	keys = keys[:len(l)]
	for i, c := range l {
		keys[i] = rankKey(c)
	}
	keys = sortKeys(keys, tmp)
	ex := s.f.inst.Ex
	for i, k := range keys {
		b := int32(uint32(k))
		l[i] = Candidate{Other: b, P: rankP(k), D: float32(ex.VpinDist(a, int(b)))}
	}
	return l
}

// radixMin is the shortest key list sortKeys radix-sorts. Below it the
// radix passes' fixed cost loses to slices.Sort: timed on every list of a
// loo-l6 op, the two tie at 48–63 keys and radix wins from 64, and
// BenchmarkSortKeys puts the crossover between 64 and 96 keys.
const radixMin = 64

// sortKeys sorts keys ascending and returns them, in keys or in tmp, which
// must be at least as long. The keys are distinct (Other is unique in a
// list), so the result is the one ascending order whichever algorithm runs.
func sortKeys(keys, tmp []uint64) []uint64 {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return keys
	}
	return radixKeys(keys, tmp)
}

// radixKeys is a least-significant-byte-first radix sort of keys through
// tmp that skips every byte all the keys share (a list's candidate ids
// are below the design's v-pin count, so they share at least their top
// byte). It returns the sorted keys, in keys or in tmp.
func radixKeys(keys, tmp []uint64) []uint64 {
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		and &= k
		or |= k
	}
	src, dst := keys, tmp[:len(keys)]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte((and^or)>>shift) == 0 {
			continue
		}
		var count [256]int32
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		var pos int32
		for i := range count {
			count[i], pos = pos, pos+count[i]
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// shardSize resolves the region size: the explicit request when positive,
// otherwise a size giving each worker about four regions — small enough to
// balance uneven regions across workers — clamped to [16, 2048] v-pins.
func shardSize(requested, total, workers int) int {
	if requested > 0 {
		return requested
	}
	size := (total + 4*workers - 1) / (4 * workers)
	if size < 16 {
		size = 16
	}
	if size > 2048 {
		size = 2048
	}
	return size
}
