// Package pairs owns the candidate-pair pipeline at the core of the
// paper's attack: enumerate the admitted v-pin pairs of an instance,
// materialise their 11 features (§III-B) into a reusable arena, and score
// them through a pluggable backend.
//
// Every consumer of candidate pairs — training-set sampling, level-1 and
// level-2 candidate scoring, two-level pruning, and the proximity attack's
// validation stage — goes through the same three stages:
//
//	Instance   per-(design, split-layer) state: feature extractor, ground
//	           truth, and the spatial v-pin index.
//	Filter     the admission rules of one configuration (legality,
//	           neighborhood radius, DiffVpinY limit); AppendAdmitted walks
//	           the admitted candidates of a v-pin into a caller's buffer in
//	           the pipeline's canonical deterministic order.
//	Gatherer   a reusable arena that collects one v-pin's admitted
//	           candidates (ids, distances, feature rows) and scores them
//	           via a Backend: one ProbBatch call per model level over the
//	           gathered rows, in the canonical order. A model level
//	           without ProbBatch is adapted to score row by row through
//	           Prob, with bit-identical results.
//
// The package has no randomness and no configuration of its own; callers
// own both.
package pairs

// Scorer is the classifier interface the pipeline consumes: a probability
// that a feature vector describes a truly matching v-pin pair. Prob must be
// safe for concurrent use — candidate scoring fans out across goroutines
// against one Scorer. Trained models are expected to be immutable, which
// makes this free.
type Scorer interface {
	Prob(x []float64) float64
}

// BatchScorer is a Scorer that can score a whole row-major feature matrix
// in one call. ProbBatch(rows, stride, out) must write to out[r] exactly
// what Prob(rows[r*stride:(r+1)*stride]) returns — bit-identical, so a
// model scores the same through either call — and must be safe for
// concurrent use and allocation-free. ml.Ensemble, the compiled form of the
// Bagging, is the canonical implementation.
type BatchScorer interface {
	Scorer
	ProbBatch(rows []float64, stride int, out []float64)
}

// TwoLevel composes the two pruning levels of §III-E: pairs the level-1
// model rejects (p1 < 0.5) are excluded outright (scored -1, below every
// threshold); surviving pairs are scored by the level-2 model.
type TwoLevel struct {
	L1, L2 Scorer
}

// Prob implements Scorer with the two-level composition.
func (s *TwoLevel) Prob(x []float64) float64 {
	if s.L1.Prob(x) < 0.5 {
		return -1
	}
	return s.L2.Prob(x)
}
