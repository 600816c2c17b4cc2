package attack

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
)

// DefaultPAFractions is the PA-LoC fraction grid searched during the
// proximity attack's validation stage.
func DefaultPAFractions() []float64 {
	return []float64{0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1}
}

// ProximitySuccess runs the proximity attack of §III-H on every scored
// v-pin: the PA-LoC of a v-pin is its top frac*N candidates by probability,
// and the attack picks the candidate with the smallest ManhattanVpin
// distance (ties broken by higher probability, then randomly). It returns
// the fraction of v-pins whose picked candidate is the true match. The rng
// breaks exact ties only; the caller owns it (RunProximityOnInstances hands
// each target its derived unitPA stream).
func (ev *Evaluation) ProximitySuccess(frac float64, rng *rand.Rand) float64 {
	targets := ev.Subset
	if targets == nil {
		targets = make([]int, ev.N)
		for i := range targets {
			targets[i] = i
		}
	}
	if len(targets) == 0 {
		return 0
	}
	k := int(frac*float64(ev.N) + 0.5)
	if k < 1 {
		k = 1
	}
	success := 0
	for _, a := range targets {
		if pick, ok := ev.proximityPick(a, k, rng); ok && pick == ev.Truth[a] {
			success++
		}
	}
	return float64(success) / float64(len(targets))
}

// proximityPick selects the PA answer for v-pin a from its top-k
// candidates.
func (ev *Evaluation) proximityPick(a, k int, rng *rand.Rand) (int32, bool) {
	cands := ev.Cands[a]
	if k > len(cands) {
		k = len(cands)
	}
	best := -1
	ties := 0
	for i := 0; i < k; i++ {
		c := cands[i]
		if c.P < 0 {
			break // unscored tail (two-level exclusions); list is sorted by P
		}
		switch {
		case best < 0 || c.D < cands[best].D:
			best = i
			ties = 1
		case c.D == cands[best].D:
			// Same distance: the list is sorted by descending P, so the
			// incumbent has the higher probability; on an exact P tie,
			// reservoir-sample among the tied candidates.
			if c.P == cands[best].P {
				ties++
				if rng.Intn(ties) == 0 {
					best = i
				}
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return cands[best].Other, true
}

// PAAnswers returns the proximity-attack pick of every v-pin at the given
// PA-LoC fraction, or -1 where no candidate exists. Downstream consumers
// (e.g. functional netlist-recovery evaluation) turn this into a pairing.
// The rng breaks exact ties; the caller owns it.
func (ev *Evaluation) PAAnswers(frac float64, rng *rand.Rand) []int32 {
	k := int(frac*float64(ev.N) + 0.5)
	if k < 1 {
		k = 1
	}
	out := make([]int32, ev.N)
	for a := 0; a < ev.N; a++ {
		if pick, ok := ev.proximityPick(a, k, rng); ok {
			out[a] = pick
		} else {
			out[a] = -1
		}
	}
	return out
}

// PAOutcome reports the proximity attack against one design.
type PAOutcome struct {
	Design string
	// Success is the PA success rate with the validated PA-LoC fraction.
	Success float64
	// FixedSuccess is the PA success rate with the fixed threshold-0.5 LoC
	// (the pre-validation procedure of [18]), for comparison.
	FixedSuccess float64
	// BestFrac is the PA-LoC fraction selected by validation.
	BestFrac float64
	// ValidationDur is the extra wall-clock cost of the validation stage.
	ValidationDur time.Duration
}

// RunProximityOnInstances executes the validation-based proximity attack
// of §III-H for every design under leave-one-out cross-validation, reusing
// the scored candidates of prior, a RunInstances result with the same
// configuration and instances: for each target, the PA-LoC fraction is
// chosen by an 80/20 v-pin split of the training designs and then applied
// to the target's scored candidates. Only the validation stage is new work,
// and every PA random draw comes from the stream (cfg.Seed, unitPA,
// target), independent of the attack-run streams.
//
// Targets run concurrently on cfg.Workers goroutines (0 = GOMAXPROCS) with
// bit-identical outcomes at any worker count; entry t equals
// ProximityTargetInstances for target t. A failing target does not abort
// its siblings; failed entries are zero-valued in the returned slice and
// their errors are joined.
func RunProximityOnInstances(cfg Config, insts []*Instance, prior *Result) ([]PAOutcome, error) {
	cfg, err := prepareRun(cfg, insts)
	if err != nil {
		return nil, err
	}
	if prior == nil || len(prior.Evals) != len(insts) {
		return nil, fmt.Errorf("attack: proximity attack needs a prior result over the %d designs", len(insts))
	}
	outcomes := make([]PAOutcome, len(insts))
	err = eachFold(cfg, insts, "attack.pa", "pa", func(target, worker int, root *obs.Span) error {
		ev := prior.Evals[target]
		if ev == nil {
			return fmt.Errorf("attack: %s: target %s: prior result has no evaluation",
				cfg.Name, insts[target].Ch.Design.Name)
		}
		tsp := root.Begin("pa-target",
			obs.F("design", insts[target].Ch.Design.Name), obs.F("worker", worker))
		outcomes[target] = paTarget(cfg, insts, target, ev, prior.RadiusNorm[target], tsp)
		tsp.End()
		return nil
	})
	if err != nil {
		return outcomes, fmt.Errorf("attack: %s: proximity attack: %w", cfg.Name, err)
	}
	return outcomes, nil
}

// paTarget runs the validation stage for one target and assembles its
// outcome from an already-scored evaluation. Every random draw — the 80/20
// validation split, validation-model training, and tie-breaking — comes
// from streams derived from (cfg.Seed, unitPA/unitPAModel, target), so the
// outcome is the same from RunProximityOnInstances and
// ProximityTargetInstances alike.
func paTarget(cfg Config, insts []*Instance, target int, ev *Evaluation,
	radiusNorm float64, sp *obs.Span) PAOutcome {

	paRng := rng.Derive(cfg.Seed, unitPA, int64(target))
	v0 := time.Now()
	vsp := sp.Begin("validation")
	bestFrac := validatePAFraction(cfg, others(insts, target), radiusNorm, target, paRng)
	vsp.SetAttr("best_frac", bestFrac)
	vsp.End()
	valDur := time.Since(v0)

	out := PAOutcome{
		Design:        insts[target].Ch.Design.Name,
		Success:       ev.ProximitySuccess(bestFrac, paRng),
		FixedSuccess:  ev.fixedThresholdPA(paRng),
		BestFrac:      bestFrac,
		ValidationDur: valDur,
	}
	sp.SetAttr("success", out.Success)
	sp.SetAttr("fixed_success", out.FixedSuccess)
	return out
}

// ProximityTargetInstances runs the validation-based proximity attack for
// the single design at index target, reusing its already-scored evaluation
// and neighborhood radius from RunFoldInstances (or from a full
// RunInstances) on the same instances. Only the PA-LoC validation stage is
// new work — the sibling targets' models are never trained — and the
// outcome equals RunProximityOnInstances' entry for the target: PA
// randomness is derived from cfg.Seed and the target index alone.
func ProximityTargetInstances(cfg Config, insts []*Instance, target int, ev *Evaluation, radiusNorm float64) (PAOutcome, error) {
	cfg, err := prepareFold(cfg, insts, target)
	if err != nil {
		return PAOutcome{}, err
	}
	if ev == nil {
		return PAOutcome{}, fmt.Errorf("attack: proximity target needs a scored evaluation")
	}
	o := cfg.Obs
	sp := o.Begin("attack.pa-target", obs.F("design", insts[target].Ch.Design.Name))
	defer sp.End()
	return paTarget(cfg, insts, target, ev, radiusNorm, sp), nil
}

// fixedThresholdPA is the pre-validation PA of [18]: the PA-LoC is simply
// the threshold-0.5 LoC.
func (ev *Evaluation) fixedThresholdPA(rng *rand.Rand) float64 {
	targets := make([]int, ev.N)
	for i := range targets {
		targets[i] = i
	}
	success := 0
	for _, a := range targets {
		// Count the p >= 0.5 prefix and pick within it.
		k := 0
		for k < len(ev.Cands[a]) && ev.Cands[a][k].P >= 0.5 {
			k++
		}
		if k == 0 {
			continue
		}
		if pick, ok := ev.proximityPick(a, k, rng); ok && pick == ev.Truth[a] {
			success++
		}
	}
	return float64(success) / float64(ev.N)
}

// validatePAFraction selects the PA-LoC fraction: 80% of each training
// design's v-pins form a validation training set; the held-out 20% are
// attacked with every candidate fraction; the fraction with the best mean
// success rate wins. The split permutations and success-rate tie-breaks
// consume the caller's per-target paRng sequentially; the validation model
// trains in parallel from (cfg.Seed, unitPAModel, target) tree streams.
func validatePAFraction(cfg Config, trainInsts []*Instance, radiusNorm float64, target int, paRng *rand.Rand) float64 {
	fracs := DefaultPAFractions()
	selected := make([][]int, len(trainInsts))
	heldout := make([][]int, len(trainInsts))
	for i, inst := range trainInsts {
		perm := paRng.Perm(inst.N())
		cut := inst.N() * 8 / 10
		selected[i] = append([]int(nil), perm[:cut]...)
		heldout[i] = append([]int(nil), perm[cut:]...)
	}

	ds := TrainingSet(cfg, trainInsts, radiusNorm, selected, paRng)
	sc, err := model.TrainContext{Obs: cfg.Obs, Opts: cfg.TrainOptions, Seed: cfg.Seed,
		Unit: unitPAModel, Fold: target, Workers: cfg.Workers}.Train(ds)
	if err != nil {
		// Degenerate validation data (e.g. tiny tests): fall back to a
		// mid-grid fraction rather than failing the whole attack.
		return fracs[len(fracs)/2]
	}

	evals := make([]*Evaluation, len(trainInsts))
	for i, inst := range trainInsts {
		evals[i] = scoreSubset(sc, inst, cfg, radiusNorm, heldout[i])
	}

	bestFrac, bestRate := fracs[0], -1.0
	for _, f := range fracs {
		var sum float64
		for _, e := range evals {
			sum += e.ProximitySuccess(f, paRng)
		}
		rate := sum / float64(len(evals))
		if rate > bestRate {
			bestRate, bestFrac = rate, f
		}
	}
	return bestFrac
}
