package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/sweep"
)

// RunSpec declares one leave-one-out attack run an experiment reads: a
// configuration at a (split layer, noise) coordinate, plus its
// validation-based proximity attack when PA is set. Each spec is one
// sweep.Run: one work unit per suite design (fold).
type RunSpec struct {
	Config attack.Config
	Layer  int
	Noise  float64
	PA     bool
}

// crossLayers expands configs × layers into clean (noise-0) run specs.
func crossLayers(configs []attack.Config, layers []int) []RunSpec {
	out := make([]RunSpec, 0, len(configs)*len(layers))
	for _, layer := range layers {
		for _, cfg := range configs {
			out = append(out, RunSpec{Config: cfg, Layer: layer})
		}
	}
	return out
}

// withPA asks for the proximity attack of every spec.
func withPA(specs []RunSpec) []RunSpec {
	for i := range specs {
		specs[i].PA = true
	}
	return specs
}

// Results answers the runs an experiment declares, and only those. Reading
// an undeclared run is a bug in the declaration: it panics, naming the
// experiment and the run.
type Results struct {
	exp  string
	runs map[string]*attack.Result
	pa   map[string][]attack.PAOutcome
	// read records every key a renderer read, so a test can check that
	// each declared run is read.
	read map[string]bool
}

// results computes the experiment's declared runs (and proximity attacks)
// on the suite's pool, Workers runs at a time.
func (s *Suite) results(e Experiment) (Results, error) {
	runs := make([]*attack.Result, len(e.Runs))
	pas := make([][]attack.PAOutcome, len(e.Runs))
	err := s.sweep("runs."+e.ID, len(e.Runs), func(i int) error {
		r := e.Runs[i]
		var err error
		runs[i], err = s.RunNoisy(r.Config, r.Layer, r.Noise)
		if err == nil && r.PA {
			pas[i], err = s.runPA(r.Config, r.Layer, r.Noise)
		}
		return err
	})
	res := Results{exp: e.ID, runs: map[string]*attack.Result{}, pa: map[string][]attack.PAOutcome{}, read: map[string]bool{}}
	for i, r := range e.Runs {
		key := runKey(r.Config, r.Layer, r.Noise)
		res.runs[key] = runs[i]
		if r.PA {
			res.pa[key] = pas[i]
		}
	}
	return res, err
}

// Result returns the declared run of cfg at (layer, sd).
func (r Results) Result(cfg attack.Config, layer int, sd float64) *attack.Result {
	key := runKey(cfg, layer, sd)
	res, ok := r.runs[key]
	if !ok {
		panic(fmt.Sprintf("experiments: %s reads run %s at layer %d, noise %g, which it does not declare",
			r.exp, cfg.Name, layer, sd))
	}
	r.read[key] = true
	return res
}

// All returns the declared clean runs of configs at layer, position-matched.
func (r Results) All(configs []attack.Config, layer int) []*attack.Result {
	out := make([]*attack.Result, len(configs))
	for i, cfg := range configs {
		out[i] = r.Result(cfg, layer, 0)
	}
	return out
}

// PA returns the proximity attack of the declared run of cfg at (layer, sd).
func (r Results) PA(cfg attack.Config, layer int, sd float64) []attack.PAOutcome {
	key := runKey(cfg, layer, sd)
	out, ok := r.pa[key]
	if !ok {
		panic(fmt.Sprintf("experiments: %s reads the proximity attack of %s at layer %d, noise %g, which it does not declare",
			r.exp, cfg.Name, layer, sd))
	}
	r.read["pa "+key] = true
	return out
}

// Plan returns the runs a set of experiments declares, each once (Tables IV
// and V and Fig. 9 share their runs): the work a sharded sweep splits
// across processes before a merge run renders from the same declarations.
// Enumeration is deterministic: same experiments, same plan.
func Plan(exps []Experiment) []RunSpec {
	var out []RunSpec
	at := map[string]int{}
	for _, e := range exps {
		for _, r := range e.Runs {
			key := runKey(r.Config, r.Layer, r.Noise)
			if i, ok := at[key]; ok {
				out[i].PA = out[i].PA || r.PA
				continue
			}
			at[key] = len(out)
			out = append(out, r)
		}
	}
	return out
}

// PlanStats summarises a RunPlan execution.
type PlanStats struct {
	// Planned is the total unit count of the plan, across all shards.
	Planned int
	sweep.Stats
}

// String renders the stats for command output.
func (st PlanStats) String() string {
	return fmt.Sprintf("planned=%d owned=%d computed=%d loaded=%d recomputed=%d",
		st.Planned, st.Owned, st.Done, st.Skipped, st.Recomputed)
}

// RunPlan runs the units of a plan that the shard owns (the zero shard owns
// all), checkpointing every completed fold: each spec is one sweep.Run, and
// the specs share the suite's pool like an experiment's runs. It is the
// shard worker's entry point; rendering happens later, in a merge run that
// loads the union of all shards' partials. Proximity attacks are left to
// that run. Requires a Checkpoint (a sharded run without one would compute
// results and throw them away).
func (s *Suite) RunPlan(runs []RunSpec, sh sweep.Shard) (PlanStats, error) {
	st := PlanStats{Planned: len(runs) * len(s.Designs)}
	if s.Checkpoint == nil {
		return st, fmt.Errorf("experiments: RunPlan needs a checkpoint directory to write partial results to")
	}
	if err := sh.Validate(); err != nil {
		return st, err
	}
	name := "shard"
	if str := sh.String(); str != "" {
		name = "shard." + strings.ReplaceAll(str, "/", "of")
	}
	stats := make([]sweep.Stats, len(runs))
	err := s.sweep(name, len(runs), func(i int) error {
		r := runs[i]
		insts, err := s.Instances(r.Layer, r.Noise)
		if err != nil {
			return err
		}
		_, stats[i], err = sweep.Run(context.TODO(), s.Checkpoint, s.provenance(), sh, s.prepare(r.Config), r.Noise, insts)
		return err
	})
	for _, x := range stats {
		st.Add(x)
	}
	return st, err
}
