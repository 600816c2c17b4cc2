package ml

import (
	"fmt"
	"math"
	"math/rand"
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
	// Written so that a NaN, which fails every comparison, takes the
	// default too.
	if !(o.PruneFrac > 0 && o.PruneFrac < 1) {
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
	keys, tmpKeys, tmpIDs := make([]uint64, rows), make([]uint64, rows), make([]int32, rows)
	for fp, f := range opts.Features {
		if c.x[f] == nil {
			col := make([]float64, rows)
			for r, row := range ds.X {
				col[r] = row[f]
			}
			c.x[f] = col
		}
		order := make([]int32, rows)
		for r, v := range c.x[f] {
			keys[r], order[r] = valueKey(v), int32(r)
		}
		radixSort(keys, order, tmpKeys, tmpIDs)
		c.order[fp] = order
	}
	return c, nil
}

// valueKey maps a finite float64 to a uint64 that orders as the value
// does: a negative value's bits are inverted, a non-negative value's sign
// bit is set. −0 is folded to +0 first, since the two compare equal.
func valueKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSort sorts ids by keys[i], the key of ids[i], in place: a stable
// least-significant-byte-first radix sort through tmpKeys and tmpIDs that
// skips every byte all the keys share. Entries of equal key keep their
// order, so ids listed in row-id order come out in (key, row id) order.
// keys is left in some order, and the scratch slices must be at least as
// long as ids.
func radixSort(keys []uint64, ids []int32, tmpKeys []uint64, tmpIDs []int32) {
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		and &= k
		or |= k
	}
	srcK, srcI, dstK, dstI := keys, ids, tmpKeys[:len(keys)], tmpIDs[:len(ids)]
	for shift := uint(0); shift < 64; shift += 8 {
		if byte((and^or)>>shift) == 0 {
			continue
		}
		var count [256]int32
		for _, k := range srcK {
			count[byte(k>>shift)]++
		}
		var pos int32
		for i := range count {
			count[i], pos = pos, pos+count[i]
		}
		for i, k := range srcK {
			d := byte(k >> shift)
			dstK[count[d]], dstI[count[d]] = k, srcI[i]
			count[d]++
		}
		srcK, srcI, dstK, dstI = dstK, dstI, srcK, srcI
	}
	if len(ids) > 0 && &srcI[0] != &ids[0] {
		copy(ids, srcI)
	}
}

// grower is one goroutine's tree-induction state over shared columns. Its
// buffers are sized to the dataset once and reused by every tree the
// goroutine trains.
type grower struct {
	c *columns
	// ids[fp][lo:hi] lists the distinct grow-set rows of the node owning
	// segment [lo, hi) in increasing order of feature opts.Features[fp];
	// vals[fp] holds their values alongside, so the split scan reads both
	// sequentially. Every node owns the same segment of every feature's
	// arrays, and a split stably partitions each — the C4.5 presort
	// scheme, O(m·n) per tree level.
	ids  [][]int32
	vals [][]float64
	// wy[r] is row r's weight in the current tree's grow set — the number
	// of times the bootstrap drew it into that set — in its low 32 bits,
	// and its positive weight (the weight again for a positive row, 0 for
	// a negative one) in its high 32 bits: one addition per row
	// accumulates both of a node's counts. It is zero for rows outside the
	// grow set.
	wy []uint64
	// goLeft[r] is 1 when row r goes left at the split being applied.
	goLeft    []uint8
	spareIDs  []int32 // right-hand staging for the stable partitions
	spareVals []float64
	sample    []int32 // the current tree's bootstrap
	perm      []int32 // a REPTree's shuffle of its sample positions
	pruneRows []int32 // the current tree's pruning fold
	featPos   []int
	// sharedFold is set while a REPTree prunes on its whole sample (see
	// train); its leaves then keep their grow counts.
	sharedFold bool
}

func newGrower(c *columns) *grower {
	rows, m := len(c.y), len(c.opts.Features)
	g := &grower{
		c:         c,
		ids:       make([][]int32, m),
		vals:      make([][]float64, m),
		wy:        make([]uint64, rows),
		goLeft:    make([]uint8, rows),
		spareIDs:  make([]int32, rows),
		spareVals: make([]float64, rows),
		sample:    make([]int32, rows),
		perm:      make([]int32, rows),
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
	y := g.c.y
	var prune []int32
	switch g.c.opts.Kind {
	case REPTree:
		// The permutation's first cut rows form the pruning fold and the
		// rest the grow set; if either would be empty, both are all rows.
		perm := permute(g.perm[:len(rows)], rng)
		cut := int(float64(len(rows)) * g.c.opts.PruneFrac)
		pruneIdx, growIdx := perm[:cut], perm[cut:]
		g.sharedFold = cut == 0 || cut == len(rows)
		if g.sharedFold {
			pruneIdx, growIdx = perm, perm
		}
		prune = g.pruneRows[:0]
		for _, j := range pruneIdx {
			prune = append(prune, rows[j])
		}
		for _, j := range growIdx {
			r := rows[j]
			g.wy[r] += 1 | uint64(y[r])<<32
		}
	case RandomTree:
		for _, r := range rows {
			g.wy[r] += 1 | uint64(y[r])<<32
		}
	}
	t := &Tree{}
	t.root, _ = g.growSeg(0, g.layout(), prune, 0, rng)
	clear(g.wy)
	t.flatten()
	return t
}

// permute fills m with the permutation rng.Perm(len(m)) returns, by the
// same loop and so the same draws, and returns it.
func permute(m []int32, rng *rand.Rand) []int32 {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
	return m
}

// layout writes the grow set's distinct rows — those with a weight in
// g.wy — in every feature's presorted order, one pass over each order and
// no sort, and returns their number. Each row is written once, whatever
// its weight. That cannot change the tree: a split choice depends only on
// the label counts at boundaries between distinct values, and the copies
// of a row share its value, so they never straddle a boundary.
func (g *grower) layout() int {
	w := 0
	for fp, f := range g.c.opts.Features {
		col, ids, vals := g.c.x[f], g.ids[fp], g.vals[fp]
		w = 0
		// Branch-free: every row is written, and only a weighted row
		// advances the cursor. w <= the rows read so far, so the writes
		// stay in bounds.
		for _, r := range g.c.order[fp] {
			ids[w], vals[w] = r, col[r]
			wy := g.wy[r]
			w += int((wy | -wy) >> 63)
		}
	}
	return w
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
// prune lists the pruning-fold rows that reach the node, nil for a
// RandomTree; growSeg partitions it in place down the subtree.
//
// A REPTree is pruned as it grows, bottom-up, with Weka's reduced-error
// rule: a subtree collapses to a leaf unless it beats the leaf on the
// pruning fold by more than a pessimistic margin of about half a standard
// deviation of the fold size — chance splits on noise cannot clear the
// margin, while genuinely informative splits exceed it easily. growSeg
// returns the subtree's error count on the fold. A leaf's counts are then
// backfitted: they count every row of the tree's sample that reaches it,
// grow set and pruning fold alike, so inference probabilities reflect all
// of the sample rather than only the grow set. A decision node keeps its
// grow-set counts.
func (g *grower) growSeg(lo, hi int, prune []int32, depth int, rng *rand.Rand) (*node, int) {
	opts, y := &g.c.opts, g.c.y
	var acc uint64
	for _, r := range g.ids[0][lo:hi] {
		acc += g.wy[r]
	}
	total, pos := int(uint32(acc)), int(acc>>32)
	n := &node{pos: pos, neg: total - pos}

	// Errors on the fold if this node were a leaf predicting its grow-set
	// majority.
	prunePos := 0
	for _, r := range prune {
		prunePos += int(y[r])
	}
	leafErr := prunePos
	if pos > total-pos {
		leafErr = len(prune) - prunePos
	}
	leaf := func() (*node, int) {
		n.left, n.right = nil, nil
		if opts.Kind == REPTree && !g.sharedFold {
			n.pos += prunePos
			n.neg += len(prune) - prunePos
		}
		return n, leafErr
	}
	if pos == 0 || pos == total || total < 2*opts.MinLeaf || depth >= opts.MaxDepth {
		return leaf()
	}
	// The pruning rule below collapses this node whatever its subtree's
	// error: subErr >= 0, and float rounding is monotone, so float64(subErr)
	// + margin >= margin >= float64(leafErr). Growing the subtree would
	// only throw it away, and a REPTree's growth draws no randomness.
	margin := 0.5 * math.Sqrt(float64(len(prune))+1)
	if opts.Kind == REPTree && float64(leafErr) <= margin {
		return leaf()
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
		g.scan(&best, fp, lo, hi, total, pos, parentH)
	}
	if best.fp < 0 {
		return leaf()
	}
	nLeft := g.partition(best, lo, hi)
	if nLeft == 0 || nLeft == hi-lo {
		return leaf()
	}
	n.feature = opts.Features[best.fp]
	n.threshold = best.thr
	pLeft := partitionFold(prune, g.c.x[n.feature], n.threshold)
	var errL, errR int
	n.left, errL = g.growSeg(lo, lo+nLeft, prune[:pLeft], depth+1, rng)
	n.right, errR = g.growSeg(lo+nLeft, hi, prune[pLeft:], depth+1, rng)
	if opts.Kind == RandomTree {
		return n, 0
	}
	subErr := errL + errR
	if float64(leafErr) <= float64(subErr)+margin {
		return leaf()
	}
	return n, subErr
}

// boundSlack is the margin the entropy bound leaves above the largest
// difference between W/total and the exact split entropy; that difference
// stays below 1e-13 for nodes of up to 1e7 rows (DESIGN.md §16).
const boundSlack = 1e-9

// scan evaluates every threshold of feature position fp over the node's
// segment [lo, hi), whose rows weigh total, pos of it positive, against
// best. A threshold between distinct values v < next is a candidate when
// both sides weigh at least MinLeaf, and it becomes best when its gain,
// parentH minus the size-weighted entropy2 of the two sides, exceeds
// best.gain by more than 1e-12 — in that expression, evaluated in that
// order.
//
// Most candidates are settled without it. W, total times the split
// entropy, is also Σ±k·ln k over the six counts (see splitW), six lookups
// in the klnk table. A candidate with W >= best.skip cannot pass: skip
// puts W/total boundSlack above the entropy that would pass, and W/total
// is far closer than that to the exact value. best only ever takes exact
// gains, so the chosen split is the one the exact test alone would pick.
func (g *grower) scan(best *split, fp, lo, hi, total, pos int, parentH float64) {
	wy, klnk := g.wy, g.c.klnk
	ids, vals := g.ids[fp][lo:hi], g.vals[fp][lo:hi]
	minLeaf, neg := g.c.opts.MinLeaf, total-pos
	// acc holds the left side's weight and positive weight, packed as in
	// wy, with entry k the last one on the left.
	var acc uint64
	for k := 0; k < len(ids)-1; k++ {
		acc += wy[ids[k]]
		v, next := vals[k], vals[k+1]
		if v == next {
			continue
		}
		left := int(uint32(acc))
		if left < minLeaf {
			continue
		}
		if total-left < minLeaf {
			break
		}
		lp := int(acc >> 32)
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
// arrays, stably, and returns the number of entries going left; it moves
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

// partitionFold swaps the fold rows going left at the split (col[r] < thr)
// to the front of rows and returns their number. Only the fold's counts
// are read, so its order is free.
func partitionFold(rows []int32, col []float64, thr float64) int {
	l := 0
	for i, id := range rows {
		if col[id] < thr {
			rows[l], rows[i] = id, rows[l]
			l++
		}
	}
	return l
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
