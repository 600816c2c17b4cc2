package pairs

import (
	"slices"

	"repro/internal/features"
)

// Gatherer is one scoring worker's reusable arena: it collects a v-pin's
// admitted candidates (ids, distances, feature rows) and scores them
// through a Backend. All slices grow to the largest candidate set the
// worker has seen and are then reused, so steady-state gathering and
// scoring allocate nothing. A Gatherer is not safe for concurrent use; use
// one per worker.
type Gatherer struct {
	// Ids[k] is the k-th gathered candidate of the current v-pin, in the
	// canonical enumeration order; the backend scores the rows in this
	// order.
	Ids []int32
	// D[k] is the ManhattanVpin distance of candidate k, filled by Gather.
	D []float32
	// P[k] is candidate k's final probability after Score; under two-level
	// pruning gate-rejected candidates score -1, exactly like
	// TwoLevel.Prob.
	P []float64
	// Stride is the feature-row width; zero selects features.NumFeatures,
	// the width of every pre-existing configuration. Configurations whose
	// feature set reaches into the routing-hint block set the wider
	// features.Width of their set.
	Stride int
	// rows is the row-major feature matrix: candidate k occupies
	// rows[k*stride : (k+1)*stride].
	rows []float64
	// p2 holds level-2 probabilities of the gate's survivors.
	p2 []float64
	// Batches and BatchRows count ProbBatch calls and the rows scored
	// through them, across the Gatherer's lifetime.
	Batches   int64
	BatchRows int64
}

// rowStride resolves the arena's feature-row width.
func (g *Gatherer) rowStride() int {
	if g.Stride > 0 {
		return g.Stride
	}
	return features.NumFeatures
}

// Gather collects v-pin a's admitted candidates under the filter: ids,
// distances, and the feature matrix, in the canonical enumeration order.
// Previously gathered state is discarded.
func (g *Gatherer) Gather(f Filter, a int) {
	g.gather(f, a, nil)
	ex := f.inst.Ex
	g.D = slices.Grow(g.D[:0], len(g.Ids))[:len(g.Ids)]
	for k, b := range g.Ids {
		g.D[k] = float32(ex.VpinDist(a, int(b)))
	}
}

// gather is Gather without the distances, restricted to the pairs a owns:
// it drops every candidate b < a that shared marks, since b's own gather
// scores the pair (see ScoreLists). A nil shared keeps every candidate.
// ScoreLists reads no distance while it scores; it computes the retained
// candidates' distances when it sorts each list.
func (g *Gatherer) gather(f Filter, a int, shared []bool) {
	g.Ids = f.AppendAdmitted(g.Ids[:0], a)
	if shared != nil {
		k := 0
		for _, b := range g.Ids {
			if int(b) > a || !shared[b] {
				g.Ids[k] = b
				k++
			}
		}
		g.Ids = g.Ids[:k]
	}
	n, stride, ex := len(g.Ids), g.rowStride(), f.inst.Ex
	g.rows = slices.Grow(g.rows[:0], n*stride)[:n*stride]
	for k, b := range g.Ids {
		ex.Pair(a, int(b), g.rows[k*stride:(k+1)*stride])
	}
}

// reserve sizes the buffers for n candidates at once, so that gather and
// Score over up to n candidates allocate nothing.
func (g *Gatherer) reserve(n int) {
	g.Ids = slices.Grow(g.Ids[:0], n)
	g.rows = make([]float64, 0, n*g.rowStride())
	g.P = make([]float64, 0, n)
}

// Score runs the gathered candidates through the backend, filling P with
// one probability per gathered candidate.
func (g *Gatherer) Score(b Backend) {
	k := len(g.Ids)
	if cap(g.P) < k {
		g.P = make([]float64, k)
	}
	g.P = g.P[:k]
	if k == 0 {
		return
	}
	b.score(g)
}

// Backend scores a gathered arena through one ProbBatch call per model
// level. Construct through ResolveBackend.
type Backend interface {
	score(g *Gatherer)
	// pairwise reports whether a candidate's probability depends on its
	// feature row alone, so that ScoreLists may score a pair of two
	// targets once for both lists.
	pairwise() bool
}

// ResolveBackend resolves a trained model into its scoring backend, the
// one batched engine. A model level with its own ProbBatch scores through
// it; a level without one is adapted to score row by row through Prob,
// which the BatchScorer contract makes bit-identical. forceScalar adapts
// the whole model instead: a two-level model then gates each row through
// TwoLevel.Prob, the composition the batched gate is checked against.
func ResolveBackend(model Scorer, forceScalar bool) Backend {
	if forceScalar {
		return &batchBackend{b1: rowScorer{model}}
	}
	if m, ok := model.(*TwoLevel); ok {
		return &batchBackend{b1: asBatch(m.L1), b2: asBatch(m.L2)}
	}
	return &batchBackend{b1: asBatch(model)}
}

// asBatch returns s's own batch scorer, or s adapted to one.
func asBatch(s Scorer) BatchScorer {
	if b, ok := s.(BatchScorer); ok {
		return b
	}
	return rowScorer{s}
}

// rowScorer adapts a Prob-only scorer to BatchScorer: its ProbBatch calls
// Prob once per row.
type rowScorer struct {
	Scorer
}

func (r rowScorer) ProbBatch(rows []float64, stride int, out []float64) {
	for i := range out {
		out[i] = r.Prob(rows[i*stride : (i+1)*stride])
	}
}

// batchBackend scores the arena in one ProbBatch call per model level. b2
// is the level-2 model under two-level pruning, nil otherwise. Under
// two-level pruning, level 1 scores all rows first; surviving rows
// (p1 >= 0.5, the gate of TwoLevel.Prob) are compacted to the front of the
// matrix in place, level 2 scores only the survivors, and the results
// scatter back over the gate: rejected candidates score -1, exactly like
// TwoLevel.Prob.
type batchBackend struct {
	b1 BatchScorer
	b2 BatchScorer
}

func (eng *batchBackend) pairwise() bool { return true }

func (eng *batchBackend) score(g *Gatherer) {
	stride := g.rowStride()
	k := len(g.Ids)
	eng.b1.ProbBatch(g.rows, stride, g.P)
	g.Batches++
	g.BatchRows += int64(k)
	if eng.b2 == nil {
		return
	}
	surv := 0
	for i := 0; i < k; i++ {
		if g.P[i] < 0.5 {
			continue
		}
		if surv != i {
			copy(g.rows[surv*stride:(surv+1)*stride], g.rows[i*stride:(i+1)*stride])
		}
		surv++
	}
	if cap(g.p2) < surv {
		g.p2 = make([]float64, surv, cap(g.P))
	}
	g.p2 = g.p2[:surv]
	if surv > 0 {
		eng.b2.ProbBatch(g.rows[:surv*stride], stride, g.p2)
		g.Batches++
		g.BatchRows += int64(surv)
	}
	s := 0
	for i := 0; i < k; i++ {
		if g.P[i] < 0.5 {
			g.P[i] = -1
		} else {
			g.P[i] = g.p2[s]
			s++
		}
	}
}
