package experiments

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/attack"
	"repro/internal/sweep"
)

// RunSpec names one leave-one-out attack run an experiment depends on: a
// configuration at a (split layer, noise) coordinate. Specs are the bridge
// between the experiment registry and the sweep work-unit layer: each spec
// expands into one unit per suite design (fold).
type RunSpec struct {
	Config attack.Config
	Layer  int
	Noise  float64
}

// Deps enumerations per experiment. Each expands the same run declaration
// its renderer reads (tableIIRuns, tableIVConfigs, noiseRuns, ...), so a
// sharded plan pre-computes precisely the folds the merge run will load.

func depsTableI() []RunSpec {
	return crossLayers(attack.StandardConfigs(), tableLayers)
}

func depsTableII() []RunSpec { return crossLayers(tableIIRuns()) }

func depsTableIII() []RunSpec { return crossLayers(tableIIIRuns()) }

func depsTableIV() []RunSpec {
	var out []RunSpec
	for _, layer := range tableLayers {
		out = append(out, crossLayers(tableIVConfigs(layer), []int{layer})...)
	}
	return out
}

// depsNoise covers Table VI and Fig. 10.
func depsNoise() []RunSpec {
	cfg, layers, sds := noiseRuns()
	var out []RunSpec
	for _, layer := range layers {
		for _, sd := range sds {
			out = append(out, RunSpec{Config: cfg, Layer: layer, Noise: sd})
		}
	}
	return out
}

// depsExtClassifiers: every classifier is a registered learner family, so
// all three are content-addressable and checkpoint as plan units.
func depsExtClassifiers() []RunSpec { return crossLayers(extClassifiersRuns()) }

func depsExtDL() []RunSpec { return crossLayers(extDLRuns()) }

// depsExtDefense: only the undefended baseline runs against the suite's own
// challenges; the defense variants mutate layouts out-of-suite and cannot
// be checkpointed as units.
func depsExtDefense() []RunSpec { return crossLayers(extDefenseRuns()) }

func depsExtRecovery() []RunSpec { return crossLayers(extRecoveryRuns()) }

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

// PlanUnit is one entry of an executable plan: the sweep work unit plus the
// prepared configuration that computes it.
type PlanUnit struct {
	Unit   sweep.Unit
	Config attack.Config
}

// PlanRuns expands run specs into the suite's work units: one unit per
// (spec × fold), deduplicated across specs (experiments share runs — Tables
// IV and V and Fig. 9 all consume the same sweeps). Every configuration is
// content-addressable — learner families serialize their identity into
// OptionsHash — so every spec plans. Enumeration is deterministic: same
// suite, same specs, same plan.
func (s *Suite) PlanRuns(runs []RunSpec) []PlanUnit {
	var units []PlanUnit
	seen := map[string]bool{}
	for _, r := range runs {
		pcfg := s.prepare(r.Config)
		key := runKey(pcfg, r.Layer, r.Noise)
		if seen[key] {
			continue
		}
		seen[key] = true
		for fold := range s.Designs {
			units = append(units, PlanUnit{Unit: s.unit(pcfg, r.Layer, r.Noise, fold), Config: pcfg})
		}
	}
	return units
}

// Plan enumerates the work units of a set of experiments by concatenating
// their Deps and expanding with PlanRuns. Experiments without Deps (pure
// feature figures, out-of-suite defense variants) contribute nothing: their
// rendering work always happens in the merge process.
func (s *Suite) Plan(exps []Experiment) []PlanUnit {
	var runs []RunSpec
	for _, e := range exps {
		if e.Deps != nil {
			runs = append(runs, e.Deps()...)
		}
	}
	return s.PlanRuns(runs)
}

// PlanStats summarises a RunPlan execution.
type PlanStats struct {
	// Planned is the total unit count of the plan, across all shards.
	Planned int
	// Owned is how many units this suite's shard was responsible for.
	Owned int
	// Computed units ran the attack engine (includes Recomputed).
	Computed int
	// Loaded units were served from valid checkpoint files.
	Loaded int
	// Recomputed units had a corrupt checkpoint file discarded first.
	Recomputed int
}

// String renders the stats for command output.
func (st PlanStats) String() string {
	return fmt.Sprintf("planned=%d owned=%d computed=%d loaded=%d recomputed=%d",
		st.Planned, st.Owned, st.Computed, st.Loaded, st.Recomputed)
}

// RunPlan executes the units of the plan that the suite's Shard owns,
// checkpointing every completed fold. It is the shard worker's entry point:
// enumerate (Plan), filter by ownership, compute-or-skip each unit, and exit
// — rendering happens later, in a merge run that loads the union of all
// shards' partials. Requires a Checkpoint (a sharded run without one would
// compute results and throw them away).
func (s *Suite) RunPlan(units []PlanUnit) (PlanStats, error) {
	st := PlanStats{Planned: len(units)}
	if s.Checkpoint == nil {
		return st, fmt.Errorf("experiments: RunPlan needs a checkpoint directory to write partial results to")
	}
	if err := s.Shard.Validate(); err != nil {
		return st, err
	}
	var owned []PlanUnit
	for _, u := range units {
		if s.Shard.Owns(u.Unit.Key()) {
			owned = append(owned, u)
		}
	}
	st.Owned = len(owned)

	name := "shard"
	if sh := s.Shard.String(); sh != "" {
		name = "shard." + strings.ReplaceAll(sh, "/", "of")
	}
	var mu sync.Mutex
	err := s.sweep(name, len(owned), func(i int) error {
		u := owned[i]
		insts, err := s.Instances(u.Unit.Layer, u.Unit.Noise)
		if err != nil {
			return err
		}
		_, _, outcome, err := sweep.RunUnit(s.Obs, s.Checkpoint, u.Unit, u.Config, insts)
		if err != nil {
			return err
		}
		mu.Lock()
		switch outcome {
		case sweep.Loaded:
			st.Loaded++
		case sweep.Recomputed:
			st.Recomputed++
			st.Computed++
		default:
			st.Computed++
		}
		mu.Unlock()
		return nil
	})
	return st, err
}
