package ml

import "fmt"

// Ensemble is the compiled, inference-only form of a Bagging: every base
// tree flattened into one contiguous node arena shared by the whole
// ensemble, with the Laplace-smoothed leaf probability (P+1)/(P+N+2)
// precomputed as a float64 at compile time. Relative to walking the
// per-tree flat slices through Bagging.Prob, this removes the per-tree
// slice indirection, the per-visit division, and (via ProbBatch) the
// per-pair interface dispatch of the attack's scoring hot path.
//
// An Ensemble is immutable; Prob and ProbBatch are safe for concurrent use
// from any number of goroutines. Prob is bit-identical to the Bagging it
// was compiled from: the precomputed leaf probability is the same division
// over the same operands, and per-vector tree probabilities are summed in
// tree order before one final division by the tree count.
type Ensemble struct {
	nodes []enode
	roots []int32
}

// enode is one packed arena node, 16 bytes. val is the split threshold of
// internal nodes and the precomputed Laplace-smoothed probability of
// leaves; feature < 0 marks a leaf. Trees flatten in DFS preorder, so an
// internal node's left child is always the next arena slot and only the
// right child needs an index. Halving the node size keeps even the larger
// attack ensembles L1-resident during a batch walk.
type enode struct {
	val     float64
	feature int32
	right   int32
}

// Compile packs the trained ensemble into an Ensemble. The Bagging remains
// usable as the scalar correctness oracle; the Ensemble holds its own
// arena and keeps no reference to the trees.
func (b *Bagging) Compile() *Ensemble {
	total := 0
	for _, t := range b.Trees {
		total += len(t.flat)
	}
	e := &Ensemble{
		nodes: make([]enode, 0, total),
		roots: make([]int32, len(b.Trees)),
	}
	for ti, t := range b.Trees {
		base := int32(len(e.nodes))
		e.roots[ti] = base
		for fi, fn := range t.flat {
			en := enode{feature: fn.feature}
			if fn.feature < 0 {
				en.val = float64(fn.pos+1) / float64(fn.pos+fn.neg+2)
			} else {
				if fn.left != int32(fi)+1 {
					panic("ml: flat tree not in DFS preorder")
				}
				en.val = fn.threshold
				en.right = base + fn.right
			}
			e.nodes = append(e.nodes, en)
		}
	}
	return e
}

// Trees returns the number of base trees in the compiled ensemble.
func (e *Ensemble) Trees() int { return len(e.roots) }

// Nodes returns the total node count of the arena.
func (e *Ensemble) Nodes() int { return len(e.nodes) }

// Width returns the feature-row width the ensemble reads: one past the
// highest feature column any split tests (0 for an all-leaf arena).
func (e *Ensemble) Width() int {
	w := 0
	for i := range e.nodes {
		w = max(w, int(e.nodes[i].feature)+1)
	}
	return w
}

// Prob returns the soft-voting ensemble probability p(x) in [0, 1],
// bit-identical to the source Bagging's Prob.
func (e *Ensemble) Prob(x []float64) float64 {
	var sum float64
	for _, root := range e.roots {
		i := root
		for {
			n := &e.nodes[i]
			if n.feature < 0 {
				sum += n.val
				break
			}
			if x[n.feature] < n.val {
				i++
			} else {
				i = n.right
			}
		}
	}
	return sum / float64(len(e.roots))
}

// Predict applies threshold t to the ensemble probability.
func (e *Ensemble) Predict(x []float64, t float64) bool {
	return e.Prob(x) >= t
}

// ProbBatch scores len(out) feature vectors in one call. rows is a
// row-major matrix: vector r occupies rows[r*stride : r*stride+stride].
// out[r] receives the ensemble probability of vector r, bit-identical to
// Prob(rows[r*stride:(r+1)*stride]).
//
// The batch iterates row-outer/tree-inner: each row's tree walks are
// independent dependency chains the CPU overlaps, the per-row sum lives in
// a register, and the arena (16-byte nodes) stays cache-hot for the whole
// batch instead of being re-streamed per tree or evicted by interleaved
// caller work. ProbBatch performs no allocations.
func (e *Ensemble) ProbBatch(rows []float64, stride int, out []float64) {
	n := len(out)
	if stride <= 0 || len(rows) < n*stride {
		panic(fmt.Sprintf("ml: ProbBatch matrix %d floats cannot hold %d rows of stride %d",
			len(rows), n, stride))
	}
	nodes := e.nodes
	div := float64(len(e.roots))
	off := 0
	for r := 0; r < n; r++ {
		var sum float64
		for _, root := range e.roots {
			i := root
			for {
				nd := &nodes[i]
				if nd.feature < 0 {
					sum += nd.val
					break
				}
				if rows[off+int(nd.feature)] < nd.val {
					i++
				} else {
					i = nd.right
				}
			}
		}
		out[r] = sum / div
		off += stride
	}
}
