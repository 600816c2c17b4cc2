package pairs

import "math"

// Ranked wraps a backend with the list-wise ranking head of the
// DL-perspective attack (Li et al., DAC'19/TCAD'20): instead of treating
// each candidate pair as an independent, heavily imbalanced classification,
// it softmax-normalises every gathered v-pin's candidate scores in place,
// so each list becomes a probability distribution over "which candidate is
// this v-pin's BEOL connection". Gate-rejected candidates (score -1, the
// two-level pruning sentinel below every threshold) are left untouched and
// excluded from the normalisation.
//
// The softmax is strictly monotone within a list, so per-list rankings —
// and therefore the candidate lists, CCR, and accuracy-at-K — are preserved
// exactly; what changes is the score scale that cross-list consumers (the
// figure-of-merit, ROC sweeps) see. The wrapper composes with the backend
// of any model.
func Ranked(b Backend) Backend {
	if _, ok := b.(*rankedBackend); ok {
		return b
	}
	return &rankedBackend{inner: b}
}

type rankedBackend struct {
	inner Backend
}

// pairwise is false: a softmax score depends on the whole list, so every
// v-pin must score its own list.
func (r *rankedBackend) pairwise() bool { return false }

func (r *rankedBackend) score(g *Gatherer) {
	r.inner.score(g)
	// Max-subtraction keeps the exponentials in range; only candidates the
	// gate admitted (P >= 0) participate.
	max := math.Inf(-1)
	for _, p := range g.P {
		if p >= 0 && p > max {
			max = p
		}
	}
	if math.IsInf(max, -1) {
		return // every candidate gate-rejected, nothing to normalise
	}
	var sum float64
	for _, p := range g.P {
		if p >= 0 {
			sum += math.Exp(p - max)
		}
	}
	for k, p := range g.P {
		if p >= 0 {
			g.P[k] = math.Exp(p-max) / sum
		}
	}
}
