package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rng"
)

// This file keeps the row-major tree inducer that the presorted-columns
// trainer replaced, unchanged but for its names: it re-sorts every
// feature of every tree's materialised grow set and evaluates the exact
// split entropy of every candidate through row pointers. The property
// test below trains it and the production code on the same data and
// streams and requires identical trees, bit for bit.

// TestInductionMatchesReference trains the reference inducer and the
// production trainers on randomized datasets — heavy ties, constant
// columns, signed zeros, duplicated rows — under every option the
// trainers branch on, and requires identical flat trees: feature,
// threshold bits, children and leaf counts.
func TestInductionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for c := 0; c < 240; c++ {
		n := 2 + r.Intn(200)
		switch {
		case c%40 == 0:
			n = 1000 + r.Intn(4001)
		case c%8 == 0:
			n = 200 + r.Intn(800)
		}
		width := 1 + r.Intn(11)
		ds := refDataset(r, n, width)
		opts := TreeOptions{
			Kind:     []TreeKind{REPTree, RandomTree}[r.Intn(2)],
			MinLeaf:  []int{1, 2, 5}[r.Intn(3)],
			MaxDepth: []int{3, 30}[r.Intn(2)],
		}
		switch r.Intn(4) {
		case 0:
			opts.Features = []int{r.Intn(width)}
		case 1:
			opts.Features = r.Perm(width)[:1+r.Intn(width)]
		case 2:
			f := r.Intn(width)
			opts.Features = []int{f, r.Intn(width), f}
		}
		name := fmt.Sprintf("case %d (n=%d width=%d %v minleaf=%d depth=%d features=%v)",
			c, n, width, opts.Kind, opts.MinLeaf, opts.MaxDepth, opts.Features)
		seed := r.Int63()

		want, err := refTrainTree(ds, opts, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := TrainTree(ds, opts, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameTree(t, name+" TrainTree", got, want)

		if c%3 != 0 || n > 1000 {
			continue
		}
		shared := rand.New(rand.NewSource(seed))
		wantB, err := refTrainBagging(ds, 3, opts, func(int) *rand.Rand { return shared })
		if err != nil {
			t.Fatalf("%s: reference bagging: %v", name, err)
		}
		gotB, err := TrainBagging(ds, 3, opts, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range wantB.Trees {
			sameTree(t, fmt.Sprintf("%s TrainBagging tree %d", name, i), gotB.Trees[i], wantB.Trees[i])
		}

		streams := func(tree int) *rand.Rand { return rng.Derive(seed, int64(tree)) }
		wantS, err := refTrainBagging(ds, 4, opts, streams)
		if err != nil {
			t.Fatalf("%s: reference streams: %v", name, err)
		}
		gotS, err := TrainBaggingStreams(nil, ds, 4, opts, streams, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range wantS.Trees {
			sameTree(t, fmt.Sprintf("%s TrainBaggingStreams tree %d", name, i), gotS.Trees[i], wantS.Trees[i])
		}
	}
}

// sameTree fails the test unless got and want have identical flat nodes,
// thresholds compared bit for bit.
func sameTree(t *testing.T, name string, got, want *Tree) {
	t.Helper()
	if len(got.flat) != len(want.flat) || got.Depth() != want.Depth() {
		t.Fatalf("%s: %d nodes depth %d, reference %d nodes depth %d",
			name, len(got.flat), got.Depth(), len(want.flat), want.Depth())
	}
	for i, g := range got.flat {
		w := want.flat[i]
		if g.feature != w.feature || math.Float64bits(g.threshold) != math.Float64bits(w.threshold) ||
			g.left != w.left || g.right != w.right || g.pos != w.pos || g.neg != w.neg {
			t.Fatalf("%s: node %d is %+v, reference %+v", name, i, g, w)
		}
	}
}

// refDataset draws n rows of width columns. Each column is quantized to a
// few integers (heavy ties), spread over signed integers, constant,
// continuous, or a mix of -0, +0 and 1; about one row in eight repeats an
// earlier one. Labels follow two columns plus noise, with a few datasets
// pure noise or a single class.
func refDataset(r *rand.Rand, n, width int) *Dataset {
	kinds := make([]int, width)
	for j := range kinds {
		kinds[j] = r.Intn(5)
	}
	a, b := r.Intn(width), r.Intn(width)
	labels := r.Intn(10)
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		if i > 0 && r.Intn(8) == 0 {
			k := r.Intn(i)
			ds.Add(append([]float64(nil), ds.X[k]...), ds.Y[k])
			continue
		}
		x := make([]float64, width)
		for j := range x {
			switch kinds[j] {
			case 0:
				x[j] = float64(r.Intn(4))
			case 1:
				x[j] = float64(r.Intn(60) - 30)
			case 2:
				x[j] = 7
			case 3:
				x[j] = r.NormFloat64()
			case 4:
				x[j] = []float64{math.Copysign(0, -1), 0, 1}[r.Intn(3)]
			}
		}
		var y bool
		switch labels {
		case 0:
			y = r.Intn(2) == 0
		case 1:
			y = true
		default:
			y = x[a]+x[b]+2*r.NormFloat64() > 1
		}
		ds.Add(x, y)
	}
	return ds
}

// TestEntropyBoundError bounds the gap between W/total, the split scan's
// table-based entropy, and the exact expression it stands in for: every
// (lp, ln, rp, rn) up to 64 rows, and a sample of splits up to 1e7 rows,
// must agree to within a thousandth of the scan's slack.
func TestEntropyBoundError(t *testing.T) {
	worst := 0.0
	check := func(lp, ln, rp, rn int) {
		left, right := lp+ln, rp+rn
		total := left + right
		w := splitW(xlogx(left), xlogx(right), xlogx(lp), xlogx(ln), xlogx(rp), xlogx(rn))
		h := (float64(left)*entropy2(lp, ln) + float64(right)*entropy2(rp, rn)) / float64(total)
		if d := math.Abs(w/float64(total) - h); d > worst {
			worst = d
			if d > boundSlack/1000 {
				t.Fatalf("split (%d, %d | %d, %d): |W/total - h| = %g exceeds %g",
					lp, ln, rp, rn, d, boundSlack/1000)
			}
		}
	}
	const small = 64
	for lp := 0; lp <= small; lp++ {
		for ln := 0; lp+ln <= small; ln++ {
			for rp := 0; lp+ln+rp <= small; rp++ {
				for rn := 0; lp+ln+rp+rn <= small; rn++ {
					if lp+ln+rp+rn > 0 {
						check(lp, ln, rp, rn)
					}
				}
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	// count draws a class count in [0, n]: often at or next to an end,
	// where one class nearly vanishes, otherwise uniform.
	count := func(n int) int {
		if r.Intn(4) == 0 {
			return max(0, []int{0, 1, n - 1, n}[r.Intn(4)])
		}
		return r.Intn(n + 1)
	}
	for i := 0; i < 200000; i++ {
		total := 2 + int(math.Exp(r.Float64()*math.Log(1e7-2)))
		left := 1 + r.Intn(total-1)
		lp := count(left)
		rp := count(total - left)
		check(lp, left-lp, rp, total-left-rp)
	}
	t.Logf("largest |W/total - h| = %g (slack %g)", worst, boundSlack)
}

// refTrainTree is TrainTree as the reference inducer implements it.
func refTrainTree(ds *Dataset, opts TreeOptions, rng *rand.Rand) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(len(ds.X[0]))
	for _, f := range opts.Features {
		if f < 0 || f >= len(ds.X[0]) {
			return nil, fmt.Errorf("ml: feature index %d out of range", f)
		}
	}

	t := &Tree{}
	switch opts.Kind {
	case REPTree:
		pruneSet, growSet := ds.SplitFrac(opts.PruneFrac, rng)
		if growSet.Len() == 0 || pruneSet.Len() == 0 {
			growSet, pruneSet = ds, ds
		}
		t.root = newRefGrower(growSet, opts).grow(rng)
		t.refPrune(t.root, pruneSet, allIdx(pruneSet.Len()), make([]int, pruneSet.Len()))
		t.refBackfit(ds)
	case RandomTree:
		t.root = newRefGrower(ds, opts).grow(rng)
	default:
		return nil, fmt.Errorf("ml: unknown tree kind %d", opts.Kind)
	}
	t.flatten()
	return t, nil
}

// refTrainBagging trains n reference trees on bootstrap resamples, tree i
// drawing everything from streams(i) — TrainBaggingStreams' contract, and
// TrainBagging's when every stream is the one shared rng.
func refTrainBagging(ds *Dataset, n int, opts TreeOptions, streams func(tree int) *rand.Rand) (*Bagging, error) {
	b := &Bagging{}
	for i := 0; i < n; i++ {
		r := streams(i)
		t, err := refTrainTree(ds.Bootstrap(r), opts, r)
		if err != nil {
			return nil, err
		}
		b.Trees = append(b.Trees, t)
	}
	return b, nil
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// refGrower holds the presorted index structure used during tree induction.
// Rather than re-sorting at every node (O(m·n·log n) per level), each
// feature's row indices are sorted once; every node owns a contiguous
// segment [lo, hi) of all per-feature arrays and splits stably partition
// each array in place — the classic C4.5 presort scheme, O(m·n) per level.
type refGrower struct {
	ds      *Dataset
	opts    TreeOptions
	sorted  [][]int32 // one sorted index array per considered feature
	scratch []int32
}

func newRefGrower(ds *Dataset, opts TreeOptions) *refGrower {
	g := &refGrower{
		ds:      ds,
		opts:    opts,
		sorted:  make([][]int32, len(opts.Features)),
		scratch: make([]int32, ds.Len()),
	}
	for fp, f := range opts.Features {
		idx := make([]int32, ds.Len())
		for i := range idx {
			idx[i] = int32(i)
		}
		sort.Slice(idx, func(a, b int) bool {
			va, vb := ds.X[idx[a]][f], ds.X[idx[b]][f]
			if va != vb {
				return va < vb
			}
			return idx[a] < idx[b]
		})
		g.sorted[fp] = idx
	}
	return g
}

func (g *refGrower) grow(rng *rand.Rand) *node {
	return g.growSeg(0, g.ds.Len(), 0, rng)
}

// growSeg builds the subtree over segment [lo, hi) of the sorted arrays.
func (g *refGrower) growSeg(lo, hi, depth int, rng *rand.Rand) *node {
	total := hi - lo
	pos := 0
	for _, i := range g.sorted[0][lo:hi] {
		if g.ds.Y[i] {
			pos++
		}
	}
	n := &node{pos: pos, neg: total - pos}
	if pos == 0 || pos == total || total < 2*g.opts.MinLeaf || depth >= g.opts.MaxDepth {
		return n
	}

	// Feature positions to consider at this node.
	featPos := make([]int, len(g.opts.Features))
	for i := range featPos {
		featPos[i] = i
	}
	if g.opts.Kind == RandomTree && g.opts.RandomK < len(featPos) {
		rng.Shuffle(len(featPos), func(i, j int) { featPos[i], featPos[j] = featPos[j], featPos[i] })
		featPos = featPos[:g.opts.RandomK]
	}

	bestGain := 0.0
	bestFP, bestThr := -1, 0.0
	parentH := entropy2(pos, total-pos)
	for _, fp := range featPos {
		f := g.opts.Features[fp]
		order := g.sorted[fp][lo:hi]
		lp, ln := 0, 0
		for k := 0; k < total-1; k++ {
			if g.ds.Y[order[k]] {
				lp++
			} else {
				ln++
			}
			v, next := g.ds.X[order[k]][f], g.ds.X[order[k+1]][f]
			if v == next {
				continue
			}
			left := lp + ln
			right := total - left
			if left < g.opts.MinLeaf || right < g.opts.MinLeaf {
				continue
			}
			h := (float64(left)*entropy2(lp, ln) +
				float64(right)*entropy2(pos-lp, (total-pos)-ln)) / float64(total)
			gain := parentH - h
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFP = fp
				bestThr = (v + next) / 2
			}
		}
	}
	if bestFP < 0 {
		return n
	}
	bestFeat := g.opts.Features[bestFP]

	// Stable-partition every feature array's segment by the split
	// predicate, preserving sort order on both sides.
	goesLeft := func(row int32) bool { return g.ds.X[row][bestFeat] < bestThr }
	nLeft := 0
	for _, i := range g.sorted[bestFP][lo:hi] {
		if goesLeft(i) {
			nLeft++
		}
	}
	if nLeft == 0 || nLeft == total {
		return n
	}
	for fp := range g.sorted {
		seg := g.sorted[fp][lo:hi]
		l, r := 0, 0
		right := g.scratch[:total-nLeft]
		for _, i := range seg {
			if goesLeft(i) {
				seg[l] = i
				l++
			} else {
				right[r] = i
				r++
			}
		}
		copy(seg[nLeft:], right)
	}

	n.feature = bestFeat
	n.threshold = bestThr
	n.left = g.growSeg(lo, lo+nLeft, depth+1, rng)
	n.right = g.growSeg(lo+nLeft, hi, depth+1, rng)
	return n
}

// refPrune performs reduced-error pruning: a subtree is collapsed to a leaf
// unless it beats the leaf on the pruning fold by more than a pessimistic
// margin of about half a standard deviation of the fold size — chance
// splits on noise cannot clear the margin, while genuinely informative
// splits exceed it easily. It returns the subtree's error count on the
// fold.
//
// Each node stably partitions its idx segment in place — left rows
// compact to the front, right rows stage through scratch — mirroring the
// grower's presort scheme, so the whole pruning pass reuses the two
// buffers the caller allocated instead of two fresh slices per node.
// scratch must be at least len(idx) long and is only used between the
// partition and the recursive calls, so one buffer serves every level.
func (t *Tree) refPrune(n *node, prune *Dataset, idx, scratch []int) int {
	pos := 0
	for _, i := range idx {
		if prune.Y[i] {
			pos++
		}
	}
	// Errors if this node were a leaf predicting its training majority.
	leafErr := pos
	if n.pos > n.neg {
		leafErr = len(idx) - pos
	}
	if n.isLeaf() {
		return leafErr
	}

	nLeft, nRight := 0, 0
	for _, i := range idx {
		if prune.X[i][n.feature] < n.threshold {
			idx[nLeft] = i
			nLeft++
		} else {
			scratch[nRight] = i
			nRight++
		}
	}
	copy(idx[nLeft:], scratch[:nRight])
	subErr := t.refPrune(n.left, prune, idx[:nLeft], scratch) +
		t.refPrune(n.right, prune, idx[nLeft:], scratch)
	margin := 0.5 * math.Sqrt(float64(len(idx))+1)
	if float64(leafErr) <= float64(subErr)+margin {
		n.left, n.right = nil, nil
		return leafErr
	}
	return subErr
}

// refBackfit replaces all leaf class counts with counts from the full
// training set, so inference probabilities reflect all available data
// rather than only the grow fold.
func (t *Tree) refBackfit(ds *Dataset) {
	clearCounts(t.root)
	for i := range ds.X {
		n := t.root
		for !n.isLeaf() {
			if ds.X[i][n.feature] < n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
		if ds.Y[i] {
			n.pos++
		} else {
			n.neg++
		}
	}
}
