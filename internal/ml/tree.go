package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// TreeKind selects the base-classifier algorithm.
type TreeKind int

const (
	// REPTree is Weka's reduced-error-pruning tree: grown on part of the
	// data, pruned bottom-up against a held-out fold, then backfitted with
	// the full training data. The paper switches Bagging's base classifier
	// to REPTree for a ~10x runtime reduction at equal attack quality.
	REPTree TreeKind = iota
	// RandomTree is Weka's unpruned randomised tree (the RandomForest base
	// classifier): each node considers only a random subset of features.
	RandomTree
)

// String implements fmt.Stringer.
func (k TreeKind) String() string {
	if k == REPTree {
		return "REPTree"
	}
	return "RandomTree"
}

// TreeOptions configures tree induction.
type TreeOptions struct {
	Kind TreeKind
	// Features restricts splits to these feature indices. Nil means all
	// columns. This is how the ML-9/Imp-7/Imp-11 configurations select
	// their feature sets without reshaping the data.
	Features []int
	// MinLeaf is the minimum number of samples in a leaf (default 2).
	MinLeaf int
	// MaxDepth caps tree depth (default 30).
	MaxDepth int
	// PruneFrac is the fraction of training data held out for
	// reduced-error pruning when Kind is REPTree (default 1/3, Weka's
	// "one of three folds").
	PruneFrac float64
	// RandomK is the number of random features RandomTree considers per
	// node; 0 selects Weka's default of log2(m)+1.
	RandomK int
}

func (o TreeOptions) withDefaults(numFeatures int) TreeOptions {
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 30
	}
	if o.PruneFrac <= 0 || o.PruneFrac >= 1 {
		o.PruneFrac = 1.0 / 3.0
	}
	if len(o.Features) == 0 {
		o.Features = make([]int, numFeatures)
		for i := range o.Features {
			o.Features[i] = i
		}
	}
	if o.RandomK <= 0 {
		o.RandomK = int(math.Log2(float64(len(o.Features)))) + 1
	}
	return o
}

// node is one decision node or leaf. Leaves keep the positive/negative
// sample counts that the soft-voting probability (paper eq. 1) is computed
// from.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	pos, neg  int
}

func (n *node) isLeaf() bool { return n.left == nil }

// Tree is a trained decision tree.
type Tree struct {
	// root only exists during training; flatten captures the size stats
	// and releases the pointer nodes, so a trained Tree holds nothing but
	// the flat slice.
	root *node
	// flat is the inference-time representation: nodes packed into one
	// slice in DFS order for cache locality. Pair scoring evaluates
	// millions of vectors per run, and the flat walk is measurably faster
	// than chasing node pointers. Ensemble.Compile packs these per-tree
	// slices further into one arena for the whole ensemble.
	flat []flatNode
	// nodes and depth are captured at flatten time, when the pointer tree
	// is freed.
	nodes, depth int
}

// flatNode is one packed tree node; feature < 0 marks a leaf.
type flatNode struct {
	threshold   float64
	feature     int32
	left, right int32
	pos, neg    int32
}

// flatten packs the pointer tree into the flat slice, captures the
// node-count and depth stats, and frees the pointer nodes — after training
// the flat representation is the tree.
func (t *Tree) flatten() {
	t.flat = t.flat[:0]
	t.depth = 0
	var walk func(n *node, depth int) int32
	walk = func(n *node, depth int) int32 {
		if depth > t.depth {
			t.depth = depth
		}
		idx := int32(len(t.flat))
		t.flat = append(t.flat, flatNode{feature: -1, pos: int32(n.pos), neg: int32(n.neg)})
		if !n.isLeaf() {
			l := walk(n.left, depth+1)
			r := walk(n.right, depth+1)
			t.flat[idx].feature = int32(n.feature)
			t.flat[idx].threshold = n.threshold
			t.flat[idx].left = l
			t.flat[idx].right = r
		}
		return idx
	}
	walk(t.root, 0)
	t.nodes = len(t.flat)
	t.root = nil
}

// TrainTree induces a tree from ds according to opts. The rng drives the
// grow/prune split (REPTree) and per-node feature sampling (RandomTree).
func TrainTree(ds *Dataset, opts TreeOptions, rng *rand.Rand) (*Tree, error) {
	c, err := newColumns(ds, opts)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, ds.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return newGrower(c).train(rows, rng), nil
}

// columns is one training set in the form tree induction reads it: the
// presorted attribute lists of SLIQ/SPRINT (Mehta et al., EDBT 1996). It
// is built once per TrainTree, TrainBagging or TrainBaggingStreams call
// and shared read-only by every tree of the call and every goroutine
// training them. Trees address rows by their index in the dataset, so a
// bootstrap resample is a list of row ids: no tree materialises a
// resampled dataset or sorts one.
type columns struct {
	opts TreeOptions // defaults applied, features and kind validated
	// x[f][r] is feature f of row r: one contiguous column per feature
	// opts considers, nil for the others.
	x [][]float64
	// order[fp] holds every row id in increasing order of feature
	// opts.Features[fp], equal values in row-id order.
	order [][]int32
	y     []uint8 // y[r] is 1 for a positive row, 0 for a negative one
	// klnk[k] = k·ln k for every count a node can hold (k <= rows), the
	// table the split scan's entropy bound reads.
	klnk []float64
}

func newColumns(ds *Dataset, opts TreeOptions) (*columns, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	width, rows := len(ds.X[0]), ds.Len()
	opts = opts.withDefaults(width)
	for _, f := range opts.Features {
		if f < 0 || f >= width {
			return nil, fmt.Errorf("ml: feature index %d out of range", f)
		}
	}
	if opts.Kind != REPTree && opts.Kind != RandomTree {
		return nil, fmt.Errorf("ml: unknown tree kind %d", opts.Kind)
	}
	c := &columns{
		opts:  opts,
		x:     make([][]float64, width),
		order: make([][]int32, len(opts.Features)),
		y:     make([]uint8, rows),
		klnk:  make([]float64, rows+1),
	}
	for r, pos := range ds.Y {
		if pos {
			c.y[r] = 1
		}
	}
	for k := range c.klnk {
		c.klnk[k] = xlogx(k)
	}
	type entry struct {
		v float64
		r int32
	}
	sorted := make([]entry, rows)
	for fp, f := range opts.Features {
		if c.x[f] == nil {
			col := make([]float64, rows)
			for r, row := range ds.X {
				col[r] = row[f]
			}
			c.x[f] = col
		}
		for r, v := range c.x[f] {
			sorted[r] = entry{v, int32(r)}
		}
		slices.SortFunc(sorted, func(a, b entry) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return int(a.r - b.r)
		})
		order := make([]int32, rows)
		for i, e := range sorted {
			order[i] = e.r
		}
		c.order[fp] = order
	}
	return c, nil
}

// grower is one goroutine's tree-induction state over shared columns. Its
// buffers are sized to the dataset once and reused by every tree the
// goroutine trains.
type grower struct {
	c *columns
	// ids[fp][lo:hi] lists the grow-set rows of the node owning segment
	// [lo, hi) in increasing order of feature opts.Features[fp], a row
	// once per copy; vals[fp] holds their values alongside, so the split
	// scan reads both sequentially. Every node owns the same segment of
	// every feature's arrays, and a split stably partitions each — the
	// C4.5 presort scheme, O(m·n) per tree level.
	ids  [][]int32
	vals [][]float64
	mult []int32 // each row's multiplicity in the grow set being laid out
	// goLeft[r] is 1 when row r goes left at the split being applied.
	goLeft    []uint8
	spareIDs  []int32 // right-hand staging for the stable partitions
	spareVals []float64
	sample    []int32 // the current tree's bootstrap
	pruneRows []int32 // the current tree's pruning fold
	featPos   []int
}

func newGrower(c *columns) *grower {
	rows, m := len(c.y), len(c.opts.Features)
	g := &grower{
		c:         c,
		ids:       make([][]int32, m),
		vals:      make([][]float64, m),
		mult:      make([]int32, rows),
		goLeft:    make([]uint8, rows),
		spareIDs:  make([]int32, rows),
		spareVals: make([]float64, rows),
		sample:    make([]int32, rows),
		pruneRows: make([]int32, 0, rows),
		featPos:   make([]int, m),
	}
	ids, vals := make([]int32, m*rows), make([]float64, m*rows)
	for fp := range g.ids {
		g.ids[fp] = ids[fp*rows : (fp+1)*rows]
		g.vals[fp] = vals[fp*rows : (fp+1)*rows]
	}
	return g
}

// train induces one tree over rows, a list of row ids in which a row may
// repeat. It makes the rng calls TrainTree makes on the materialised
// resample, in the same order: Dataset.SplitFrac's permutation for a
// REPTree, the per-node feature shuffles for a RandomTree.
func (g *grower) train(rows []int32, rng *rand.Rand) *Tree {
	t := &Tree{}
	switch g.c.opts.Kind {
	case REPTree:
		// The permutation's first cut rows form the pruning fold and the
		// rest the grow set; if either would be empty, both are all rows.
		perm := rng.Perm(len(rows))
		cut := int(float64(len(rows)) * g.c.opts.PruneFrac)
		prune, grow := perm[:cut], perm[cut:]
		if cut == 0 || cut == len(rows) {
			prune, grow = perm, perm
		}
		pruneRows := g.pruneRows[:0]
		for _, j := range prune {
			pruneRows = append(pruneRows, rows[j])
		}
		for _, j := range grow {
			g.mult[rows[j]]++
		}
		t.root = g.grow(len(grow), rng)
		g.prune(t.root, pruneRows, g.spareIDs)
		g.backfit(t.root, rows)
	case RandomTree:
		for _, r := range rows {
			g.mult[r]++
		}
		t.root = g.grow(len(rows), rng)
	}
	t.flatten()
	return t
}

// grow lays the grow set out — g.mult holds each row's multiplicity, n
// rows in all — in every feature's presorted order, one pass over each
// order and no sort, and grows the tree over it. Rows of equal value come out in
// row-id order rather than in the order they were drawn; that cannot
// change the tree, because a split choice depends only on the label
// counts at boundaries between distinct values.
func (g *grower) grow(n int, rng *rand.Rand) *node {
	for fp, f := range g.c.opts.Features {
		col, ids, vals := g.c.x[f], g.ids[fp], g.vals[fp]
		w := 0
		for _, r := range g.c.order[fp] {
			for k := g.mult[r]; k > 0; k-- {
				ids[w], vals[w] = r, col[r]
				w++
			}
		}
	}
	clear(g.mult)
	return g.growSeg(0, n, 0, rng)
}

// split is the best threshold a node's scan has found so far.
type split struct {
	gain float64
	fp   int // feature position; -1 while no candidate has passed
	thr  float64
	// skip is the value of total·h at or above which a candidate's exact
	// gain cannot pass gain+1e-12 (see scan).
	skip float64
}

// growSeg builds the subtree over segment [lo, hi) of the laid-out arrays.
func (g *grower) growSeg(lo, hi, depth int, rng *rand.Rand) *node {
	opts := &g.c.opts
	total := hi - lo
	pos := 0
	for _, r := range g.ids[0][lo:hi] {
		pos += int(g.c.y[r])
	}
	n := &node{pos: pos, neg: total - pos}
	if pos == 0 || pos == total || total < 2*opts.MinLeaf || depth >= opts.MaxDepth {
		return n
	}

	// Feature positions to consider at this node. The scan finishes with
	// the buffer before the children reuse it.
	featPos := g.featPos
	for i := range featPos {
		featPos[i] = i
	}
	if opts.Kind == RandomTree && opts.RandomK < len(featPos) {
		rng.Shuffle(len(featPos), func(i, j int) { featPos[i], featPos[j] = featPos[j], featPos[i] })
		featPos = featPos[:opts.RandomK]
	}

	parentH := entropy2(pos, total-pos)
	best := split{fp: -1, skip: float64(total) * (parentH + boundSlack)}
	for _, fp := range featPos {
		g.scan(&best, fp, lo, hi, pos, parentH)
	}
	if best.fp < 0 {
		return n
	}
	nLeft := g.partition(best, lo, hi)
	if nLeft == 0 || nLeft == total {
		return n
	}
	n.feature = opts.Features[best.fp]
	n.threshold = best.thr
	n.left = g.growSeg(lo, lo+nLeft, depth+1, rng)
	n.right = g.growSeg(lo+nLeft, hi, depth+1, rng)
	return n
}

// boundSlack is the margin the entropy bound leaves above the largest
// difference between W/total and the exact split entropy; that difference
// stays below 1e-13 for nodes of up to 1e7 rows (DESIGN.md §16).
const boundSlack = 1e-9

// scan evaluates every threshold of feature position fp over the node's
// segment [lo, hi), pos of whose rows are positive, against best. A
// threshold between distinct values v < next is a candidate when both
// sides keep MinLeaf rows, and it becomes best when its gain, parentH
// minus the size-weighted entropy2 of the two sides, exceeds best.gain by
// more than 1e-12 — in that expression, evaluated in that order.
//
// Most candidates are settled without it. W, total times the split
// entropy, is also Σ±k·ln k over the six counts (see splitW), six lookups
// in the klnk table. A candidate with W >= best.skip cannot pass: skip
// puts W/total boundSlack above the entropy that would pass, and W/total
// is far closer than that to the exact value. best only ever takes exact
// gains, so the chosen split is the one the exact test alone would pick.
func (g *grower) scan(best *split, fp, lo, hi, pos int, parentH float64) {
	y, klnk := g.c.y, g.c.klnk
	ids, vals := g.ids[fp][lo:hi], g.vals[fp][lo:hi]
	total, minLeaf := hi-lo, g.c.opts.MinLeaf
	neg := total - pos
	lp := 0
	for _, r := range ids[:minLeaf-1] {
		lp += int(y[r])
	}
	// k is the last row on the left: both sides keep minLeaf rows.
	for k := minLeaf - 1; k < total-minLeaf; k++ {
		lp += int(y[ids[k]])
		v, next := vals[k], vals[k+1]
		if v == next {
			continue
		}
		left := k + 1
		ln := left - lp
		if splitW(klnk[left], klnk[total-left], klnk[lp], klnk[ln], klnk[pos-lp], klnk[neg-ln]) >= best.skip {
			continue
		}
		h := (float64(left)*entropy2(lp, ln) +
			float64(total-left)*entropy2(pos-lp, neg-ln)) / float64(total)
		if gain := parentH - h; gain > best.gain+1e-12 {
			best.gain, best.fp, best.thr = gain, fp, (v+next)/2
			best.skip = float64(total) * (parentH - gain + boundSlack)
		}
	}
}

// splitW is total·h of a split as Σ±k·ln k, given k·ln k for its six
// counts — the two side sizes L and R and their class counts — since
// L·entropy2(lp, ln) = L·ln L − lp·ln lp − ln·ln ln, and likewise for R.
func splitW(kL, kR, kLP, kLN, kRP, kRN float64) float64 {
	return kL + kR - kLP - kLN - kRP - kRN
}

// xlogx returns k·ln k, 0 at k = 0.
func xlogx(k int) float64 {
	if k == 0 {
		return 0
	}
	return float64(k) * math.Log(float64(k))
}

// partition applies best to the node's segment [lo, hi) of every feature's
// arrays, stably, and returns the number of rows going left; it moves
// nothing when either side would be empty. The best feature's rows are
// sorted, so its left rows already form a prefix; a per-row flag carries
// the side to the other features, one sequential pass each.
func (g *grower) partition(best split, lo, hi int) int {
	nLeft := 0
	vals := g.vals[best.fp][lo:hi]
	for k, r := range g.ids[best.fp][lo:hi] {
		var left uint8
		if vals[k] < best.thr {
			left = 1
		}
		g.goLeft[r] = left
		nLeft += int(left)
	}
	if nLeft == 0 || nLeft == hi-lo {
		return nLeft
	}
	for fp := range g.ids {
		if fp == best.fp {
			continue
		}
		ids, vals := g.ids[fp][lo:hi], g.vals[fp][lo:hi]
		spareIDs, spareVals := g.spareIDs, g.spareVals
		l, r := 0, 0
		// Branch-free: every row is written to both sides and only the
		// cursor of its own side advances. l <= k, so the in-place
		// writes never overtake the reads.
		for k, id := range ids {
			v, left := vals[k], int(g.goLeft[id])
			ids[l], vals[l] = id, v
			spareIDs[r], spareVals[r] = id, v
			l += left
			r += 1 - left
		}
		copy(ids[l:], spareIDs[:r])
		copy(vals[l:], spareVals[:r])
	}
	return nLeft
}

// prune performs reduced-error pruning: a subtree is collapsed to a leaf
// unless it beats the leaf on the pruning fold by more than a pessimistic
// margin of about half a standard deviation of the fold size — chance
// splits on noise cannot clear the margin, while genuinely informative
// splits exceed it easily. It returns the subtree's error count on the
// fold.
//
// rows is the fold's part that reaches n. Each node stably partitions it
// in place — left rows compact to the front, right rows stage through
// spare, which must be at least len(rows) long — so the whole pass reuses
// the grower's buffers.
func (g *grower) prune(n *node, rows, spare []int32) int {
	pos := 0
	for _, r := range rows {
		pos += int(g.c.y[r])
	}
	// Errors if this node were a leaf predicting its training majority.
	leafErr := pos
	if n.pos > n.neg {
		leafErr = len(rows) - pos
	}
	if n.isLeaf() {
		return leafErr
	}

	col := g.c.x[n.feature]
	nLeft, nRight := 0, 0
	for _, r := range rows {
		if col[r] < n.threshold {
			rows[nLeft] = r
			nLeft++
		} else {
			spare[nRight] = r
			nRight++
		}
	}
	copy(rows[nLeft:], spare[:nRight])
	subErr := g.prune(n.left, rows[:nLeft], spare) + g.prune(n.right, rows[nLeft:], spare)
	margin := 0.5 * math.Sqrt(float64(len(rows))+1)
	if float64(leafErr) <= float64(subErr)+margin {
		n.left, n.right = nil, nil
		return leafErr
	}
	return subErr
}

// backfit replaces all leaf class counts with counts over rows, the
// tree's full training sample, so inference probabilities reflect all
// available data rather than only the grow fold.
func (g *grower) backfit(root *node, rows []int32) {
	clearCounts(root)
	for _, r := range rows {
		n := root
		for !n.isLeaf() {
			if g.c.x[n.feature][r] < n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
		if g.c.y[r] == 1 {
			n.pos++
		} else {
			n.neg++
		}
	}
}

func clearCounts(n *node) {
	if n.isLeaf() {
		n.pos, n.neg = 0, 0
		return
	}
	clearCounts(n.left)
	clearCounts(n.right)
}

// Counts returns the positive/negative training counts of the leaf x falls
// into: the P_i and N_i of the paper's eq. (1).
func (t *Tree) Counts(x []float64) (pos, neg int) {
	i := int32(0)
	for {
		n := &t.flat[i]
		if n.feature < 0 {
			return int(n.pos), int(n.neg)
		}
		if x[n.feature] < n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Prob returns the Laplace-smoothed leaf probability (P+1)/(P+N+2) for the
// leaf x falls into. The paper's eq. (1) uses the raw ratio P/(P+N); the
// smoothing grades otherwise-pure leaves by their support so that ensemble
// probabilities are fine-grained enough for threshold-controlled LoC sizes
// on designs smaller than the paper's (an empty leaf still yields 0.5).
func (t *Tree) Prob(x []float64) float64 {
	p, n := t.Counts(x)
	return float64(p+1) / float64(p+n+2)
}

// Predict returns the default-threshold (0.5) binary prediction.
func (t *Tree) Predict(x []float64) bool { return t.Prob(x) >= 0.5 }

// Nodes returns the total number of nodes in the tree, a size measure used
// to verify that pruning shrinks trees. The count is captured when the
// pointer tree is flattened and freed.
func (t *Tree) Nodes() int { return t.nodes }

// Depth returns the maximum depth of the tree (a single leaf has depth 0),
// captured at flatten time like Nodes.
func (t *Tree) Depth() int { return t.depth }

// entropy2 is the binary entropy of a (pos, neg) split in nats.
func entropy2(pos, neg int) float64 {
	total := pos + neg
	if total == 0 || pos == 0 || neg == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	q := 1 - p
	return -p*math.Log(p) - q*math.Log(q)
}
