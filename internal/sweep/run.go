package sweep

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/attack"
	"repro/internal/obs"
)

// Outcome says how RunUnit produced a unit's result.
type Outcome int

const (
	// Computed: the unit was run fresh (and checkpointed, when a checkpoint
	// is configured).
	Computed Outcome = iota
	// Loaded: a valid checkpoint file served the unit without any engine
	// work.
	Loaded
	// Recomputed: a checkpoint file existed but failed validation, was
	// discarded, and the unit was run fresh.
	Recomputed
)

// String names the outcome for logs and stats.
func (o Outcome) String() string {
	switch o {
	case Loaded:
		return "loaded"
	case Recomputed:
		return "recomputed"
	default:
		return "computed"
	}
}

// RunUnit is the single chokepoint every sharded, checkpointed, or merged
// fold goes through: load the unit from the checkpoint if a valid partial
// exists, otherwise compute it with attack.RunFoldInstances and persist it.
// The result is bit-identical either way — the checkpoint codec round-trips
// every evaluation bit — so callers can mix loaded and computed units
// freely. A loaded unit whose v-pin count differs from the prepared held-out
// design's is recomputed like a corrupt one. A nil checkpoint always
// computes.
//
// Outcomes land on the obs counters sweep.units.done (computed),
// sweep.units.skipped (served from checkpoint), and sweep.units.recomputed
// (corrupt partial discarded and re-run, also counted under done).
func RunUnit(o *obs.Context, ck *Checkpoint, u Unit, cfg attack.Config,
	insts []*attack.Instance) (*attack.Evaluation, float64, Outcome, error) {

	if u.Fold < 0 || u.Fold >= len(insts) {
		return nil, 0, Computed, fmt.Errorf("sweep: unit %s: fold out of range 0..%d", u, len(insts)-1)
	}
	if name := insts[u.Fold].Ch.Design.Name; name != u.Design {
		return nil, 0, Computed, fmt.Errorf("sweep: unit %s: fold %d is design %s in the prepared suite",
			u, u.Fold, name)
	}
	if layer := insts[u.Fold].Ch.SplitLayer; layer != u.Layer {
		return nil, 0, Computed, fmt.Errorf("sweep: unit %s: prepared instances are cut at layer %d",
			u, layer)
	}

	discarded := false
	if ck != nil {
		res, disc, err := ck.Load(u)
		if err != nil {
			return nil, 0, Computed, err
		}
		if res != nil && res.Eval.N == insts[u.Fold].N() {
			o.Metrics().Counter("sweep.units.skipped").Inc()
			return res.Eval, res.RadiusNorm, Loaded, nil
		}
		// A unit that does not cover the prepared design's v-pins is
		// discarded like a torn file: recomputed, and overwritten below.
		discarded = disc || res != nil
	}

	ev, radius, err := attack.RunFoldInstances(cfg, insts, u.Fold)
	if err != nil {
		return nil, 0, Computed, err
	}
	outcome := Computed
	if discarded {
		outcome = Recomputed
		o.Metrics().Counter("sweep.units.recomputed").Inc()
		o.Log().Warn("discarded corrupt checkpoint unit and recomputed", "unit", u.String())
	}
	if ck != nil {
		if err := ck.Save(&UnitResult{Unit: u, RadiusNorm: radius, Eval: ev}); err != nil {
			return nil, 0, outcome, err
		}
	}
	o.Metrics().Counter("sweep.units.done").Inc()
	return ev, radius, outcome, nil
}

// Stats counts the work units of one or more Run calls. Its JSON form is a
// sharded sweep job's "units" section.
type Stats struct {
	// Owned is how many units the shard was responsible for under the
	// content-addressed partition.
	Owned int `json:"owned"`
	// Done units ran the attack engine (includes Recomputed).
	Done int `json:"done"`
	// Skipped units were already checkpointed: a resumed run finding its
	// earlier work, or another process sharing the directory.
	Skipped int `json:"skipped"`
	// Recomputed units had a corrupt checkpoint file discarded first.
	Recomputed int `json:"recomputed"`
}

// Add accumulates another run's counts.
func (st *Stats) Add(o Stats) {
	st.Owned += o.Owned
	st.Done += o.Done
	st.Skipped += o.Skipped
	st.Recomputed += o.Recomputed
}

// Run is the checkpointed, sharded leave-one-out of cfg over insts (one
// split layer, challenges at y-noise SD noise): attack.RunFolds, with every
// fold the shard owns (the zero shard owns all) going through RunUnit as the
// unit NewUnit mints from prov and insts[fold]. Folds owned by other shards
// stay nil in the Result. ctx is checked before each owned fold. The
// experiment suite, its shard planner and the job server's sweeps all run
// here, so a fold becomes the same unit, owned by the same shard, on every
// path. The Result is bit-identical to attack.RunInstances at any pool size
// and any mix of loaded and computed folds.
func Run(ctx context.Context, ck *Checkpoint, prov Provenance, sh Shard, cfg attack.Config,
	noise float64, insts []*attack.Instance) (*attack.Result, Stats, error) {

	var mu sync.Mutex
	var st Stats
	res, err := attack.RunFolds(cfg, insts, func(fold, _ int, _ *obs.Span) (*attack.Evaluation, float64, error) {
		ch := insts[fold].Ch
		u := NewUnit(prov, cfg, ch.SplitLayer, noise, fold, ch.Design.Name)
		if !sh.Owns(u.Key()) {
			return nil, 0, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		ev, radius, outcome, err := RunUnit(cfg.Obs, ck, u, cfg, insts)
		if err != nil {
			return nil, 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		st.Owned++
		switch outcome {
		case Loaded:
			st.Skipped++
		case Recomputed:
			st.Recomputed++
			st.Done++
		default:
			st.Done++
		}
		return ev, radius, nil
	})
	return res, st, err
}
