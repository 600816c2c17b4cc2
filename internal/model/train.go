package model

import (
	"fmt"
	"time"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/par"
	"repro/internal/rng"
)

// TrainStats is the wall-clock and size breakdown of the training work one
// Train (or Store.GetOrTrain) call actually performed. A full cache hit
// reports zeros: the stats describe work done, not work represented.
type TrainStats struct {
	// Sampling is training-set generation time, Level1 and Level2 the
	// ensemble training times (Level2 zero without two-level pruning).
	Sampling, Level1, Level2 time.Duration
	// Samples and Level2Samples count the level-1 and level-2 training rows.
	Samples, Level2Samples int
}

// Train executes the spec's full train stage — sampling, level-1 ensemble
// training, and (under TwoLevel) the two-level-pruning stage — and returns
// the artifact. Training is bit-identical at any spec.Workers count: every
// random stream is derived from (Seed, unit, Fold, ...). Progress spans
// ("sampling", "train-level1", "train-level2") nest under spec.Span when
// spec.Obs is set.
func Train(spec Spec) (*Artifact, TrainStats, error) {
	l1, stats, err := trainLevel1(spec.Level1())
	if err != nil || !spec.Opts.TwoLevel {
		return l1, stats, err
	}
	full, l2stats, err := TrainLevel2(spec, l1)
	stats.Level2 = l2stats.Level2
	stats.Level2Samples = l2stats.Level2Samples
	if err != nil {
		return nil, stats, err
	}
	return full, stats, nil
}

// trainLevel1 runs sampling plus level-1 ensemble training for a spec that
// has already been normalised to level 1 (see Spec.Level1).
func trainLevel1(spec Spec) (*Artifact, TrainStats, error) {
	var stats TrainStats
	o := spec.Obs

	t0 := time.Now()
	ssp := o.BeginUnder(spec.Span, "sampling")
	ds := TrainingSet(o, spec.Opts, spec.Insts, spec.RadiusNorm, nil,
		rng.Derive(spec.Seed, UnitSampling, int64(spec.Fold)))
	stats.Sampling = time.Since(t0)
	stats.Samples = ds.Len()
	ssp.SetAttr("samples", ds.Len())
	ssp.End()

	l1sp := o.BeginUnder(spec.Span, "train-level1",
		obs.F("samples", ds.Len()), obs.F("trees", spec.Opts.NumTrees))
	t1 := time.Now()
	sc, err := trainUnit(spec, ds, UnitLevel1)
	stats.Level1 = time.Since(t1)
	l1sp.End()
	if err != nil {
		return nil, stats, err
	}

	art := &Artifact{
		Meta: Meta{
			SpecHash:     spec.Hash(),
			Config:       spec.Opts.Name,
			Family:       spec.Opts.Family,
			Level:        1,
			SplitLayer:   spec.SplitLayer,
			Designs:      spec.Designs,
			Seed:         spec.Seed,
			Fold:         spec.Fold,
			RadiusNorm:   spec.RadiusNorm,
			Samples:      ds.Len(),
			FeatureNames: spec.Opts.FeatureNames(),
			Version:      obs.Version(),
		},
		l1: sc,
	}
	if e, ok := sc.(*ml.Ensemble); ok {
		art.Meta.Trees = e.Trees()
	}
	return art, stats, nil
}

// TrainLevel2 runs the two-level-pruning stage (§III-E) of a TwoLevel spec
// on top of an already-trained level-1 artifact and returns the full
// two-level artifact. The returned stats cover only the level-2 work, so a
// Store can account a cached level-1 model as zero additional training.
func TrainLevel2(spec Spec, l1 *Artifact) (*Artifact, TrainStats, error) {
	var stats TrainStats
	o := spec.Obs
	l2sp := o.BeginUnder(spec.Span, "train-level2")
	t0 := time.Now()
	sc, nSamples, err := trainLevel2Scorer(spec, l1.l1)
	stats.Level2 = time.Since(t0)
	stats.Level2Samples = nSamples
	l2sp.End()
	if err != nil {
		return nil, stats, err
	}
	art := &Artifact{Meta: l1.Meta, l1: l1.l1, l2: sc}
	art.Meta.SpecHash = spec.Hash()
	art.Meta.Level = 2
	art.Meta.Level2Samples = nSamples
	if e, ok := sc.(*ml.Ensemble); ok {
		art.Meta.Level2Trees = e.Trees()
	}
	return art, stats, nil
}

// trainUnit trains the spec's classifier on the random streams of one
// unit of its fold, (Seed, unit, Fold, ...); see TrainContext.Train.
func trainUnit(spec Spec, ds *ml.Dataset, unit int64) (pairs.Scorer, error) {
	return TrainContext{
		Obs:     spec.Obs,
		Opts:    spec.Opts,
		Seed:    spec.Seed,
		Unit:    unit,
		Fold:    spec.Fold,
		Workers: spec.Workers,
	}.Train(ds)
}

// level2Sample is one two-level-pruning training row: a feature vector and
// its class.
type level2Sample struct {
	row []float64
	pos bool
}

// trainLevel2Scorer applies the level-1 model to the training designs
// themselves; every v-pin's level-1 LoC (threshold 0.5) supplies one
// "high-quality" negative — a candidate the level-1 model could not reject
// — and the level-2 model is trained on these negatives plus all
// positives. The per-design scoring fans out across spec.Workers
// goroutines; samples are assembled in design order, so the level-2
// training set (and hence the model) is identical at any worker count.
func trainLevel2Scorer(spec Spec, l1 pairs.Scorer) (pairs.Scorer, int, error) {
	trainInsts := spec.Insts
	perInst := make([][]level2Sample, len(trainInsts))
	// Divide the worker budget between the per-design fan-out here and the
	// candidate-scoring fan-out inside each level2Samples call: the nested
	// pools would otherwise multiply to up to Workers² goroutines competing
	// for Workers cores.
	total := par.Workers(spec.Workers, 1<<30)
	outer := par.Workers(total, len(trainInsts))
	inner := max(total/outer, 1)
	par.For(len(trainInsts), outer, func(_, i int) error {
		perInst[i] = level2Samples(spec, trainInsts[i], l1, inner, i)
		return nil
	})
	ds := &ml.Dataset{}
	for _, samples := range perInst {
		for _, s := range samples {
			ds.Add(s.row, s.pos)
		}
	}
	if ds.Len() == 0 {
		return nil, 0, fmt.Errorf("model: two-level pruning produced no training samples")
	}
	sc, err := trainUnit(spec, ds, UnitLevel2Model)
	return sc, ds.Len(), err
}

// level2Samples scores one training design with the level-1 model and
// collects its two-level training rows: every admitted true pair as a
// positive, plus per v-pin one negative sampled uniformly from the v-pin's
// level-1 LoC (candidates scored at or above 0.5, excluding the truth).
// The negative draws consume the stream (Seed, UnitLevel2Neg, Fold,
// instIdx) in v-pin order, so the samples are independent of how sibling
// designs are scheduled.
func level2Samples(spec Spec, inst *pairs.Instance, l1 pairs.Scorer, workers, instIdx int) []level2Sample {
	filter := spec.Opts.Filter(inst, spec.RadiusNorm)
	lists := candidateLists(spec, inst, l1, workers)
	negRng := rng.Derive(spec.Seed, UnitLevel2Neg, int64(spec.Fold), int64(instIdx))
	width := features.Width(spec.Opts.Features)
	var out []level2Sample
	for a := 0; a < inst.N(); a++ {
		m := inst.Match(a)
		if m >= 0 && filter.Admits(a, m) {
			row := make([]float64, width)
			inst.Ex.Pair(a, m, row)
			out = append(out, level2Sample{row: row, pos: true})
		}
		// Collect the level-1 LoC of a (p >= 0.5, excluding the truth)
		// and sample one high-quality negative from it.
		cands := lists[a]
		loc := cands[:0:0]
		for _, c := range cands {
			if c.P < 0.5 {
				break // sorted descending
			}
			if int(c.Other) != m {
				loc = append(loc, c)
			}
		}
		if len(loc) == 0 {
			continue
		}
		pick := loc[negRng.Intn(len(loc))]
		row := make([]float64, width)
		inst.Ex.Pair(a, int(pick.Other), row)
		out = append(out, level2Sample{row: row, pos: false})
	}
	return out
}

// candidateLists scores every admitted candidate pair of inst with the
// level-1 model and returns the per-v-pin retained lists, exactly as the
// attack engine's scoring stage produces them: streamed one spatial region
// at a time through pairs.ScoreLists — the same engine, the same bound
// (TrainOptions.RetainCap), so the lists are bit-identical to the engine's
// at any worker count and shard size, and training memory stays bounded on
// industrial-tier designs.
func candidateLists(spec Spec, inst *pairs.Instance, l1 pairs.Scorer, workers int) [][]pairs.Candidate {
	filter := spec.Opts.Filter(inst, spec.RadiusNorm)
	lists, _ := pairs.ScoreLists(filter, pairs.ResolveBackend(l1, false), pairs.StreamOptions{
		Cap:        spec.Opts.RetainCap(inst.N()),
		ShardVpins: spec.Opts.ShardVpins,
		Workers:    workers,
		Stride:     features.Width(spec.Opts.Features),
	})
	return lists
}
