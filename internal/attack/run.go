package attack

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/par"
	"repro/internal/split"
)

// Stream units name the independent random streams a target consumes.
// Every stream is derived as rng.Derive(cfg.Seed, unit, target, index...),
// so a unit's draws depend only on the seed and its coordinates — never on
// what other units consumed or on which worker ran them. The training
// units 1–4 moved to the model package with the train stage
// (model.UnitSampling .. model.UnitLevel2Model); the proximity-attack
// units stay here with their explicit historical values. Renumbering any
// unit changes every downstream result; treat them like the golden values
// in internal/rng.
const (
	unitPA      int64 = 5 // proximity-attack validation split
	unitPAModel int64 = 6 // proximity-attack model training (per tree)
)

// Result is the outcome of one leave-one-out attack run: one Evaluation per
// design, each produced by a model trained on the other designs.
type Result struct {
	Config Config
	// Evals[i] is the evaluation with design i held out. When RunFolds
	// returns a partial result alongside an error, entries for failed
	// targets are nil.
	Evals []*Evaluation
	// RadiusNorm[i] is the neighborhood radius (fraction of die width)
	// used when design i was the target; -1 without the Imp improvement.
	RadiusNorm []float64
	TotalDur   time.Duration
}

// MeanTrainDur and MeanTestDur average the per-target phase durations.
func (r *Result) MeanTrainDur() time.Duration {
	return r.meanDur(func(e *Evaluation) time.Duration { return e.TrainDur })
}

// MeanTestDur averages the per-target scoring durations.
func (r *Result) MeanTestDur() time.Duration {
	return r.meanDur(func(e *Evaluation) time.Duration { return e.TestDur })
}

func (r *Result) meanDur(f func(*Evaluation) time.Duration) time.Duration {
	n := 0
	var sum time.Duration
	for _, e := range r.Evals {
		if e == nil {
			continue
		}
		sum += f(e)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// NewInstancesWorkers prepares challenges for attack runs, building the
// feature extractors and spatial indexes of all designs on up to workers
// goroutines (<= 0 selects GOMAXPROCS). Instance construction is per-design
// deterministic, so the result is identical at any worker count. Instances
// are read-only during a run and may be shared between concurrent runs:
// callers that run several configurations over the same challenges
// (experiment sweeps, the job server) pay the construction cost once.
func NewInstancesWorkers(chs []*split.Challenge, workers int) []*Instance {
	return pairs.NewAll(chs, workers)
}

// prepareRun validates a leave-one-out run request and applies defaults.
func prepareRun(cfg Config, insts []*Instance) (Config, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	cfg = cfg.withDefaults()
	if len(insts) < 2 {
		return cfg, fmt.Errorf("attack: leave-one-out needs at least 2 designs, got %d", len(insts))
	}
	for _, inst := range insts[1:] {
		if inst.Ch.SplitLayer != insts[0].Ch.SplitLayer {
			return cfg, fmt.Errorf("attack: mixed split layers %d and %d",
				insts[0].Ch.SplitLayer, inst.Ch.SplitLayer)
		}
	}
	return cfg, nil
}

// eachFold is the one loop over leave-one-out folds. It runs fn for every
// fold of insts on a pool of cfg.Workers goroutines (0 = GOMAXPROCS) under a
// root span and a live progress tracker ("<progress>.<config>.L<layer>":
// done/total, rate, and ETA in the progress gauges and /progress), and joins
// the per-fold errors. A failing fold does not abort its siblings. Every
// fold derives its randomness from (cfg.Seed, unit, fold) alone, so nothing
// depends on which worker runs which fold.
func eachFold(cfg Config, insts []*Instance, span, progress string,
	fn func(fold, worker int, root *obs.Span) error) error {

	o := cfg.Obs
	layer := insts[0].Ch.SplitLayer
	workers := par.Workers(cfg.Workers, len(insts))
	root := o.Begin(span, obs.F("config", cfg.Name), obs.F("layer", layer),
		obs.F("designs", len(insts)), obs.F("workers", workers))
	defer root.End()
	prog := o.NewProgress(fmt.Sprintf("%s.%s.L%d", progress, cfg.Name, layer), int64(len(insts)))
	defer prog.Finish()
	return par.For(len(insts), workers, func(worker, fold int) error {
		defer prog.Add(1)
		return fn(fold, worker, root)
	})
}

// FoldFunc computes one leave-one-out fold of a RunFolds call — train on
// every instance except fold, score fold — and returns its evaluation and
// neighborhood radius. worker is the pool goroutine running the fold and
// root the run's span, for callers that nest per-fold spans under it. A nil
// evaluation with a nil error skips the fold: its Result entry stays nil.
type FoldFunc func(fold, worker int, root *obs.Span) (*Evaluation, float64, error)

// RunFolds runs a full leave-one-out attack; every full run goes through
// it. It validates the request, runs fold for every design on cfg.Workers
// goroutines (0 = GOMAXPROCS), and assembles the per-fold results into one
// Result. RunInstances computes each fold in-process; the experiment suite
// and the job server pass a fold function that serves folds from (and saves
// them to) a sweep checkpoint. Any fold function returning
// RunFoldInstances' bits yields a Result bit-identical to RunInstances', at
// any worker count and any mix of loaded and computed folds.
//
// A failing fold does not abort its siblings: RunFolds finishes every fold
// and, when some failed, returns the partial Result — nil Evals entries and
// RadiusNorm -1 for the failures — together with the joined per-fold
// errors.
func RunFolds(cfg Config, insts []*Instance, fold FoldFunc) (*Result, error) {
	cfg, err := prepareRun(cfg, insts)
	if err != nil {
		return nil, err
	}
	o := cfg.Obs
	start := time.Now()
	res := &Result{
		Config:     cfg,
		Evals:      make([]*Evaluation, len(insts)),
		RadiusNorm: make([]float64, len(insts)),
	}
	failed := make([]bool, len(insts))
	err = eachFold(cfg, insts, "attack.run", "attack", func(t, worker int, root *obs.Span) error {
		res.RadiusNorm[t] = -1
		ev, radius, err := fold(t, worker, root)
		if err != nil {
			failed[t] = true
			return err
		}
		if ev != nil {
			res.Evals[t] = ev
			res.RadiusNorm[t] = radius
			o.Metrics().Counter(fmt.Sprintf("attack.worker.%d.targets", worker)).Inc()
		}
		return nil
	})
	res.TotalDur = time.Since(start)
	if err != nil {
		n := 0
		for _, f := range failed {
			if f {
				n++
			}
		}
		return res, fmt.Errorf("attack: %s: %d of %d targets failed: %w", cfg.Name, n, len(insts), err)
	}
	return res, nil
}

// RunInstances executes the full leave-one-out cross-validation attack of
// §III-C on prepared instances: for every design, a model is trained on all
// other designs and used to score the held-out one. All instances must be
// cuts at the same split layer.
//
// Each target's randomness is an independent stream derived from cfg.Seed
// and the target index (see internal/rng), so the result is bit-identical
// at every worker count, including 1, and entry t equals
// RunFoldInstances(cfg, insts, t). Failures follow RunFolds.
func RunInstances(cfg Config, insts []*Instance) (*Result, error) {
	cfg = cfg.withDefaults()
	return RunFolds(cfg, insts, func(fold, worker int, root *obs.Span) (*Evaluation, float64, error) {
		return runTarget(cfg, insts, fold, worker, root)
	})
}

// RunTargetInstances is RunFoldInstances framed as a single-target attack:
// it logs that the sibling folds a full run would perform are skipped, then
// runs the one fold. Commands and the job server answer single-design
// requests through it.
func RunTargetInstances(cfg Config, insts []*Instance, target int) (*Evaluation, float64, error) {
	if cfg.Obs != nil && target >= 0 && target < len(insts) {
		cfg.Obs.Log().Info("single-target attack: skipping sibling leave-one-out runs",
			"config", cfg.Name, "target", insts[target].Ch.Design.Name, "targets_skipped", len(insts)-1)
	}
	return RunFoldInstances(cfg, insts, target)
}

// RunFoldInstances is the fold primitive: it runs exactly one leave-one-out
// fold — train on every instance except target, score target — and returns
// the fold's evaluation and neighborhood radius (as a fraction of die
// width; -1 without the Imp improvement). It is bit-identical to
// RunInstances(cfg, insts).Evals[target] at any worker count, which is what
// lets a full leave-one-out run be decomposed into independently scheduled
// (and independently checkpointed) fold units and recombined exactly.
func RunFoldInstances(cfg Config, insts []*Instance, target int) (*Evaluation, float64, error) {
	cfg, err := prepareFold(cfg, insts, target)
	if err != nil {
		return nil, 0, err
	}
	return runTarget(cfg, insts, target, 0, nil)
}

// prepareFold is prepareRun for the one fold that holds out insts[target].
func prepareFold(cfg Config, insts []*Instance, target int) (Config, error) {
	cfg, err := prepareRun(cfg, insts)
	if err == nil && (target < 0 || target >= len(insts)) {
		err = fmt.Errorf("attack: target %d out of range 0..%d", target, len(insts)-1)
	}
	return cfg, err
}

// others returns insts without the element at target.
func others(insts []*Instance, target int) []*Instance {
	out := make([]*Instance, 0, len(insts)-1)
	for i, inst := range insts {
		if i != target {
			out = append(out, inst)
		}
	}
	return out
}

// foldSpec returns the model spec of the fold that holds out insts[target]
// and the fold's neighborhood radius (a fraction of die width; -1 without
// the Imp improvement), which it records on span as radius_norm. The
// training stage's progress spans nest under span when it is non-nil.
func (c Config) foldSpec(insts []*Instance, target int, span *obs.Span) (model.Spec, float64) {
	trainInsts := others(insts, target)
	radiusNorm := -1.0
	if c.Neighborhood {
		radiusNorm = NeighborRadiusNorm(trainInsts, c.NeighborQuantile)
		span.SetAttr("radius_norm", radiusNorm)
	}
	spec := model.NewSpec(c.TrainOptions, c.Seed, target, trainInsts, radiusNorm)
	spec.Workers = c.Workers
	spec.Obs = c.Obs
	spec.Span = span
	return spec, radiusNorm
}

// scoreFold scores the held-out design inst with sc under a "scoring" span
// nested in the fold's span sp, records the fold's test_ns and vpins on sp,
// and counts the target and its scored pairs.
func (c Config) scoreFold(sc Scorer, inst *Instance, radiusNorm float64, sp *obs.Span) *Evaluation {
	scsp := sp.Begin("scoring")
	ev := scoreSubset(sc, inst, c, radiusNorm, nil)
	scsp.SetAttr("pairs", ev.PairsScored)
	if ev.Batches > 0 {
		scsp.SetAttr("batches", ev.Batches)
		scsp.SetAttr("batch_rows", ev.BatchRows)
	}
	ev.Phases.annotate(scsp)
	scsp.End()
	sp.SetAttr("test_ns", int64(ev.TestDur))
	sp.SetAttr("vpins", ev.N)
	c.Obs.Metrics().Counter("attack.targets").Inc()
	c.Obs.Metrics().Counter("attack.pairs.scored").Add(ev.PairsScored)
	return ev
}

// runTarget trains on all instances except target and scores target. All
// randomness is drawn from streams derived from (cfg.Seed, unit, target),
// so the result does not depend on which worker runs it or on sibling
// targets. Training goes through the model layer: cfg.Models, when set,
// serves repeated folds from its artifact cache (bit-identical to fresh
// training); a nil store trains inline. The span for the target nests
// under parent when one is given (RunInstances' root span), else at the
// context's root (RunFoldInstances).
func runTarget(cfg Config, insts []*Instance, target, worker int, parent *obs.Span) (*Evaluation, float64, error) {
	sp := cfg.Obs.BeginUnder(parent, "target",
		obs.F("design", insts[target].Ch.Design.Name), obs.F("worker", worker))
	defer sp.End()
	t0 := time.Now()
	spec, radiusNorm := cfg.foldSpec(insts, target, sp)
	art, stats, err := cfg.Models.GetOrTrain(spec)
	if err != nil {
		return nil, 0, fmt.Errorf("attack: %s: target %s: %w", cfg.Name, insts[target].Ch.Design.Name, err)
	}
	trainDur := time.Since(t0)
	sp.SetAttr("train_ns", int64(trainDur))

	ev := cfg.scoreFold(art.Scorer(), insts[target], radiusNorm, sp)
	ev.TrainDur = trainDur
	ev.Phases.Sampling = stats.Sampling
	ev.Phases.Level1 = stats.Level1
	ev.Phases.Level2 = stats.Level2
	return ev, radiusNorm, nil
}
