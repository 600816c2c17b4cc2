package pairs

import (
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/par"
	"repro/internal/split"
)

// Instance bundles a challenge with its feature extractor and spatial
// index; one Instance per (design, split layer). Instances are immutable
// after construction and safe to share between concurrent attack runs.
type Instance struct {
	Ch *split.Challenge
	Ex *features.Extractor
	// match[i] is the ground-truth partner of v-pin i (-1 when the partner
	// is absent, which only degenerate restricted challenges produce).
	match []int32
	// dieW normalises distances across designs of different sizes.
	dieW float64
	ix   *vpinIndex
}

// New prepares a challenge for training or testing.
func New(ch *split.Challenge) *Instance {
	inst := &Instance{
		Ch:    ch,
		Ex:    features.NewExtractor(ch),
		match: make([]int32, len(ch.VPins)),
		dieW:  float64(ch.Design.Die().Width()),
	}
	for i := range ch.VPins {
		inst.match[i] = int32(ch.VPins[i].Match)
	}
	inst.ix = newVpinIndex(ch)
	return inst
}

// NewAll prepares one Instance per challenge, building them concurrently on
// up to workers goroutines (<= 0 selects GOMAXPROCS). Construction is
// per-challenge deterministic, so the result is identical at any worker
// count.
func NewAll(chs []*split.Challenge, workers int) []*Instance {
	insts := make([]*Instance, len(chs))
	par.For(len(chs), workers, func(_, i int) error {
		insts[i] = New(chs[i])
		return nil
	})
	return insts
}

// N returns the v-pin count.
func (inst *Instance) N() int { return len(inst.Ch.VPins) }

// Match returns the ground-truth partner of v-pin a (-1 when absent).
func (inst *Instance) Match(a int) int { return int(inst.match[a]) }

// DieWidth returns the design's die width, the distance normaliser of the
// Imp neighborhood radius.
func (inst *Instance) DieWidth() float64 { return inst.dieW }

// appendMatchDistsNorm appends the ManhattanVpin distance of every true
// match, normalised by die width (one entry per cut net), to out.
func (inst *Instance) appendMatchDistsNorm(out []float64) []float64 {
	for a := 0; a < inst.N(); a++ {
		m := inst.Match(a)
		if a < m {
			out = append(out, inst.Ex.VpinDist(a, m)/inst.dieW)
		}
	}
	return out
}

// NeighborRadiusNorm pools the normalised matched-pair distances of the
// given (training) instances and returns their q-quantile — the
// neighborhood radius of the Imp configurations, as a fraction of die
// width (paper §III-D, Fig. 4). The pool is preallocated at its bound (one
// entry per matched pair, at most N/2 per instance), so the computation
// makes one slice allocation however large the suite is.
func NeighborRadiusNorm(insts []*Instance, q float64) float64 {
	total := 0
	for _, inst := range insts {
		total += inst.N() / 2
	}
	all := make([]float64, 0, total)
	for _, inst := range insts {
		all = inst.appendMatchDistsNorm(all)
	}
	return ml.Quantile(all, q)
}
