package serve

import (
	"errors"
	"fmt"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/sweep"
)

// JobKind selects which pipeline a job runs.
type JobKind string

const (
	// KindTrain trains the leave-one-out model for the held-out design and
	// returns the artifact metadata (persisting the artifact when the
	// server has a state dir).
	KindTrain JobKind = "train"
	// KindAttack runs the single-target attack: train on every other
	// design, score the held-out one, return the Evaluation.
	KindAttack JobKind = "attack"
	// KindProximity is KindAttack plus the validation-based proximity
	// attack over the evaluation.
	KindProximity JobKind = "proximity"
	// KindSweep runs the full leave-one-out attack over every design for
	// each listed configuration and returns aggregate trade-off curves.
	KindSweep JobKind = "sweep"
)

// JobSpec is the body of POST /jobs: what to run, on which design shape,
// with which attack configuration. Zero scale, seed, and layer inherit the
// server defaults (layer 8); the normalized spec — defaults filled in — is
// echoed back in statuses and results, so a job is reproducible from its
// own record.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// Design is the held-out target (train/attack/proximity): one of the
	// synthetic suite's design names ("sb1", "sb5", "sb10", "sb12",
	// "sb18"). Ignored for sweep jobs, which target every design in turn.
	Design string `json:"design,omitempty"`
	// Layer is the split (via) layer, 1..8; 0 selects 8.
	Layer int `json:"layer,omitempty"`
	// Tier is the synthetic-suite tier: "standard" (five sb* designs) or
	// "industrial" (three 100k+-cell sbx* designs); omitted inherits the
	// server's default.
	Tier string `json:"tier,omitempty"`
	// Scale is the synthetic-suite scale factor; 0 inherits the server's
	// default.
	Scale float64 `json:"scale,omitempty"`
	// Seed roots all randomness of the job; omitted inherits the server's
	// default. Jobs with equal normalized specs produce bit-identical
	// results.
	Seed *int64 `json:"seed,omitempty"`
	// Config is the attack configuration (train/attack/proximity).
	Config *ConfigSpec `json:"config,omitempty"`
	// Configs are the sweep's configurations; empty selects the paper's
	// four standard configurations.
	Configs []ConfigSpec `json:"configs,omitempty"`
	// Shard and Of partition a sweep job's leave-one-out folds across
	// cooperating jobs ("shard/of", 1-based): the job computes only the
	// work units it owns, writes them to the server's checkpoint
	// directory, and returns unit statistics instead of aggregates. A
	// later sweep job without shard/of merges every checkpointed fold into
	// the full result, bit-identical to an unsharded run. Sweep jobs only;
	// sharding requires the server to have a checkpoint directory.
	Shard int `json:"shard,omitempty"`
	Of    int `json:"of,omitempty"`
}

// ConfigSpec is the model.TrainOptions-shaped wire form of an attack
// configuration: start from a named preset and/or set fields explicitly.
// Pointer fields distinguish "absent" from "false" so presets can be
// toggled off.
type ConfigSpec struct {
	// Preset is a standard configuration name ("ML-9", "Imp-9", "Imp-7",
	// "Imp-11", or a "Y" variant like "Imp-11Y"); the remaining fields
	// override it. Without a preset, Name is required and unset fields take
	// the engine defaults.
	Preset string `json:"preset,omitempty"`
	// Name labels the configuration in results (defaults to the preset's).
	Name string `json:"name,omitempty"`
	// Features are the feature indices trees may split on.
	Features []int `json:"features,omitempty"`
	// Neighborhood toggles the Imp scalability improvement.
	Neighborhood *bool `json:"neighborhood,omitempty"`
	// NeighborQuantile is the CDF cut defining the neighborhood radius
	// (0 = the paper's 0.90).
	NeighborQuantile float64 `json:"neighbor_quantile,omitempty"`
	// LimitDiffVpinY toggles the "Y" refinement (split layer 8 only).
	LimitDiffVpinY *bool `json:"limit_diff_vpin_y,omitempty"`
	// TwoLevel toggles two-level pruning.
	TwoLevel *bool `json:"two_level,omitempty"`
	// Base is the Bagging base classifier: "reptree" (default) or
	// "randomtree".
	Base string `json:"base,omitempty"`
	// NumTrees is the ensemble size (0 = Weka default for the base).
	NumTrees int `json:"num_trees,omitempty"`
	// MaxLoCFrac bounds retained per-v-pin candidate lists (0 = 0.15).
	MaxLoCFrac float64 `json:"max_loc_frac,omitempty"`
	// MaxLoCCount additionally caps retained lists at an absolute length
	// (0 = no absolute cap) — the memory bound for industrial-tier jobs.
	MaxLoCCount int `json:"max_loc_count,omitempty"`
	// ShardVpins is the spatial-region size of the streamed scoring stage
	// (0 = automatic). Results are bit-identical for every value.
	ShardVpins int `json:"shard_vpins,omitempty"`
	// TrainCap bounds training samples (0 = unlimited).
	TrainCap int `json:"train_cap,omitempty"`
	// Learner selects the learner family by registry name ("bagging" —
	// the default — "mlp", or "logistic"); unknown names are rejected at
	// submission time. See GET /configs for the registered families.
	Learner string `json:"learner,omitempty"`
	// MLPHidden, MLPEpochs, and MLPRate tune the MLP family (0 = the
	// engine defaults 16/30/0.05); other families ignore them.
	MLPHidden int     `json:"mlp_hidden,omitempty"`
	MLPEpochs int     `json:"mlp_epochs,omitempty"`
	MLPRate   float64 `json:"mlp_rate,omitempty"`
	// Ranking toggles the list-wise ranking head (softmax over each
	// v-pin's candidate list; rankings and accuracy metrics unchanged).
	Ranking *bool `json:"ranking,omitempty"`
}

// Ceilings on what one served job may size. Each bounds work or memory the
// server commits before anything else can stop the job: the suite it
// generates (a scale-1e6 standard suite would have 5.1e10 cells), the tree
// slice and the MLP weights allocated up front, and an epoch loop that
// keeps running after a cancel. They are fixed, not options.
const (
	maxScale     = 2.0
	maxNumTrees  = 1000
	maxMLPHidden = 1024
	maxMLPEpochs = 1000
)

// resolve turns the wire form into an engine configuration.
func (cs ConfigSpec) resolve() (attack.Config, error) {
	var cfg attack.Config
	switch {
	case cs.Preset != "":
		c, ok := attack.ConfigByName(cs.Preset)
		if !ok {
			return cfg, fmt.Errorf("unknown config preset %q", cs.Preset)
		}
		cfg = c
	case cs.Name == "":
		return cfg, errors.New("config needs a preset or a name")
	}
	if cs.Name != "" {
		cfg.Name = cs.Name
	}
	if len(cs.Features) > 0 {
		cfg.Features = cs.Features
	}
	if cs.Neighborhood != nil {
		cfg.Neighborhood = *cs.Neighborhood
	}
	if cs.NeighborQuantile != 0 {
		cfg.NeighborQuantile = cs.NeighborQuantile
	}
	if cs.LimitDiffVpinY != nil {
		cfg.LimitDiffVpinY = *cs.LimitDiffVpinY
	}
	if cs.TwoLevel != nil {
		cfg.TwoLevel = *cs.TwoLevel
	}
	if cs.Base != "" {
		kind, err := ml.ParseTreeKind(cs.Base)
		if err != nil {
			return cfg, err
		}
		cfg.BaseKind = kind
	}
	if cs.NumTrees != 0 {
		cfg.NumTrees = cs.NumTrees
	}
	if cs.MaxLoCFrac != 0 {
		cfg.MaxLoCFrac = cs.MaxLoCFrac
	}
	if cs.MaxLoCCount != 0 {
		cfg.MaxLoCCount = cs.MaxLoCCount
	}
	if cs.ShardVpins != 0 {
		cfg.ShardVpins = cs.ShardVpins
	}
	if cs.TrainCap != 0 {
		cfg.TrainCap = cs.TrainCap
	}
	if cs.Learner != "" {
		cfg.Family = cs.Learner
	}
	if cs.MLPHidden != 0 {
		cfg.MLPHidden = cs.MLPHidden
	}
	if cs.MLPEpochs != 0 {
		cfg.MLPEpochs = cs.MLPEpochs
	}
	if cs.MLPRate != 0 {
		cfg.MLPRate = cs.MLPRate
	}
	if cs.Ranking != nil {
		cfg.Ranking = *cs.Ranking
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	switch {
	case cfg.NumTrees > maxNumTrees:
		return cfg, fmt.Errorf("num_trees %d above the ceiling %d", cfg.NumTrees, maxNumTrees)
	case cfg.MLPHidden > maxMLPHidden:
		return cfg, fmt.Errorf("mlp_hidden %d above the ceiling %d", cfg.MLPHidden, maxMLPHidden)
	case cfg.MLPEpochs > maxMLPEpochs:
		return cfg, fmt.Errorf("mlp_epochs %d above the ceiling %d", cfg.MLPEpochs, maxMLPEpochs)
	}
	return cfg, nil
}

// normalize fills server defaults into a submitted spec and validates it
// completely, so every rejection happens at submission time with a 400
// rather than as a failed job.
func (s *Server) normalize(spec JobSpec) (JobSpec, error) {
	switch spec.Kind {
	case KindTrain, KindAttack, KindProximity, KindSweep:
	case "":
		return spec, errors.New("spec needs a kind: train, attack, proximity, or sweep")
	default:
		return spec, fmt.Errorf("unknown kind %q (want train, attack, proximity, or sweep)", spec.Kind)
	}
	if spec.Layer == 0 {
		spec.Layer = 8
	}
	if spec.Layer < 1 || spec.Layer > 8 {
		return spec, fmt.Errorf("layer %d out of range 1..8", spec.Layer)
	}
	if spec.Tier == "" {
		spec.Tier = s.opts.DefaultTier
	}
	if !layout.ValidTier(spec.Tier) {
		return spec, fmt.Errorf("unknown tier %q (want %v)", spec.Tier, layout.Tiers())
	}
	if spec.Scale == 0 {
		spec.Scale = s.opts.DefaultScale
	}
	if !(spec.Scale > 0 && spec.Scale <= maxScale) {
		return spec, fmt.Errorf("scale %g outside (0, %g]", spec.Scale, maxScale)
	}
	if spec.Seed == nil {
		seed := s.opts.DefaultSeed
		spec.Seed = &seed
	}
	if spec.Shard != 0 || spec.Of != 0 {
		if spec.Kind != KindSweep {
			return spec, fmt.Errorf("%s jobs cannot shard (shard/of applies to sweep jobs only)", spec.Kind)
		}
		sh := sweep.Shard{Index: spec.Shard, Count: spec.Of}
		if err := sh.Validate(); err != nil {
			return spec, err
		}
		if s.ck == nil {
			return spec, errors.New("sharded sweep jobs need a server checkpoint directory (start splitserved with -checkpoint or -state)")
		}
	}
	if spec.Kind == KindSweep {
		spec.Design = ""
		if spec.Config != nil {
			return spec, errors.New("sweep jobs take configs, not config")
		}
		if len(spec.Configs) == 0 {
			for _, c := range attack.StandardConfigs() {
				spec.Configs = append(spec.Configs, ConfigSpec{Preset: c.Name})
			}
		}
		for i, cs := range spec.Configs {
			if _, err := cs.resolve(); err != nil {
				return spec, fmt.Errorf("configs[%d]: %w", i, err)
			}
		}
		return spec, nil
	}
	if len(spec.Configs) > 0 {
		return spec, fmt.Errorf("%s jobs take config, not configs", spec.Kind)
	}
	if spec.Config == nil {
		return spec, fmt.Errorf("%s jobs need a config", spec.Kind)
	}
	if _, err := spec.Config.resolve(); err != nil {
		return spec, err
	}
	if spec.Design == "" {
		return spec, fmt.Errorf("%s jobs need a target design", spec.Kind)
	}
	names := suiteDesigns(spec.Tier, spec.Scale, *spec.Seed)
	for _, n := range names {
		if n == spec.Design {
			return spec, nil
		}
	}
	return spec, fmt.Errorf("unknown design %q (%s tier has %v)", spec.Design, spec.Tier, names)
}

// suiteDesigns lists the design names of the synthetic suite at one
// (tier, scale, seed) without generating it.
func suiteDesigns(tier string, scale float64, seed int64) []string {
	profiles := layout.SuiteProfiles(layout.SuiteConfig{Tier: tier, Scale: scale, Seed: seed})
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}
