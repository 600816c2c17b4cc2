package model

import (
	"math/rand"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pairs"
)

// TrainingSet generates the balanced sample set of §III-B from the given
// training instances: one positive (true match) per v-pin plus one random
// admitted negative per v-pin. onlyVpins, when non-nil, restricts sample
// generation to the listed v-pins of each instance (used by the proximity
// attack's 80/20 validation split). The rng must be the fold's sampling
// stream; TrainingSet consumes it sequentially.
func TrainingSet(o *obs.Context, opts TrainOptions, insts []*pairs.Instance,
	radiusNorm float64, onlyVpins [][]int, rng *rand.Rand) *ml.Dataset {

	ds := &ml.Dataset{}
	width := features.Width(opts.Features)
	for k, inst := range insts {
		filter := opts.Filter(inst, radiusNorm)
		n := inst.N()
		vpins := onlyVpins0(onlyVpins, k, n)
		selected := make([]bool, n)
		for _, a := range vpins {
			selected[a] = true
		}
		var cands []int32
		for _, a := range vpins {
			m := inst.Match(a)
			if m < 0 || !selected[m] || !filter.Admits(a, m) {
				continue
			}
			row := make([]float64, width)
			inst.Ex.Pair(a, m, row)
			ds.Add(row, true)

			// Matched negative: a random admitted non-matching partner.
			if b, ok := SampleNegative(filter, vpins, selected, a, m, rng, &cands); ok {
				neg := make([]float64, width)
				inst.Ex.Pair(a, b, neg)
				ds.Add(neg, false)
			}
		}
	}
	if opts.TrainCap > 0 && ds.Len() > opts.TrainCap {
		idx := rng.Perm(ds.Len())[:opts.TrainCap]
		ds = ds.Subset(idx)
	}
	o.Metrics().Histogram("attack.trainset.size").Observe(float64(ds.Len()))
	o.Log().Debug("training set sampled", "config", opts.Name,
		"designs", len(insts), "samples", ds.Len())
	return ds
}

// SampleNegative draws a uniform random admitted non-matching partner for
// a. It first tries cheap rejection sampling; under tight filters (small
// neighborhoods, Y-limits) where rejection rarely lands, it falls back to
// reservoir sampling over a's admitted candidates in the filter's
// canonical order, walked into the caller's scratch cands. vpins lists the
// candidate pool and selected marks its members; m is a's true match,
// never returned.
func SampleNegative(filter pairs.Filter, vpins []int,
	selected []bool, a, m int, rng *rand.Rand, cands *[]int32) (int, bool) {

	const tries = 40
	for t := 0; t < tries; t++ {
		b := vpins[rng.Intn(len(vpins))]
		if b != m && filter.Admits(a, b) {
			return b, true
		}
	}
	// Reservoir over all admitted candidates of a.
	*cands = filter.AppendAdmitted((*cands)[:0], a)
	chosen, count := -1, 0
	for _, b32 := range *cands {
		b := int(b32)
		if b == m || !selected[b] {
			continue
		}
		count++
		if rng.Intn(count) == 0 {
			chosen = b
		}
	}
	if chosen < 0 {
		return 0, false
	}
	return chosen, true
}

func onlyVpins0(only [][]int, k, n int) []int {
	if only != nil {
		return only[k]
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
