// Package attack implements the paper's contribution: the machine-learning
// attack on split manufacturing. It generates balanced training samples
// from v-pin pairs, trains a Bagging classifier under leave-one-out
// cross-validation, scores all candidate pairs of a held-out design into
// per-v-pin Lists of Candidates (LoC), and layers on the paper's
// refinements — neighborhood-restricted sampling for scalability (Imp),
// two-level pruning, top-layer direction limits ("Y"), threshold-controlled
// LoC sizes, and the validation-based proximity attack.
package attack

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
)

// Config selects one of the paper's model configurations.
type Config struct {
	// Name labels the configuration in reports ("ML-9", "Imp-11Y", ...).
	Name string
	// Features are the feature indices trees may split on.
	Features []int
	// Neighborhood enables the Imp scalability improvement (§III-D):
	// training samples and tested pairs are restricted to v-pins within a
	// radius derived from the matched-pair ManhattanVpin distribution of
	// the training designs.
	Neighborhood bool
	// NeighborQuantile is the CDF cut defining the neighborhood radius;
	// the paper uses 0.90. Zero selects 0.90.
	NeighborQuantile float64
	// LimitDiffVpinY enables the "Y" refinement (§III-G): only pairs with
	// DiffVpinY = 0 are trained on and tested, exploiting the single
	// routing direction above the highest via layer. Only meaningful when
	// attacking split layer 8.
	LimitDiffVpinY bool
	// TwoLevel enables two-level pruning (§III-E).
	TwoLevel bool
	// BaseKind is the Bagging base classifier; the paper's final models
	// use REPTree, its predecessor [18] used RandomTree.
	BaseKind ml.TreeKind
	// NumTrees is the ensemble size; zero selects the Weka default for
	// the base kind (10 for REPTree, 100 for RandomTree).
	NumTrees int
	// MaxLoCFrac bounds the per-v-pin candidate list retained during
	// testing, as a fraction of the design's v-pin count. Metrics are
	// exact for LoC fractions up to this bound; the paper's tables query
	// at most 10%. Zero selects 0.15.
	MaxLoCFrac float64
	// MaxLoCCount, when positive, additionally caps every retained
	// candidate list at an absolute length, on top of the fractional
	// MaxLoCFrac bound. At industrial scale the fractional bound alone
	// retains gigabytes (0.15 of 30k v-pins is 4.5k candidates each); an
	// absolute cap keeps the Evaluation's memory proportional to N while
	// FCR/LoC/proximity metrics and Evaluation.Digest stay exact for every
	// query within the retained bound. Under TwoLevel the same cap bounds
	// the level-1 lists the pruning stage draws negatives from, so it is
	// part of the trained model's identity there (and only there — see
	// model.Spec.Hash).
	MaxLoCCount int
	// ShardVpins is the spatial-region size of the streamed scoring stage:
	// how many v-pins a worker claims at a time from the vpinIndex grid
	// walk. Zero picks an automatic size. Results are bit-identical for
	// every value; this is purely a working-set/latency knob, so it is
	// excluded from model spec hashes.
	ShardVpins int
	// TrainCap bounds the number of training samples (0 = unlimited);
	// when exceeded, a balanced random subsample is used.
	TrainCap int
	// Family selects the learner family by registry name ("" or
	// model.FamilyBagging for the paper's Bagging ensemble,
	// model.FamilyMLP for the DL-perspective multi-layer perceptron,
	// model.FamilyLogistic for the linear ablation baseline). Every family
	// is hashable and serializable, so all of them checkpoint, cache, and
	// sweep identically; Validate rejects unregistered names.
	Family string
	// MLPHidden, MLPEpochs, and MLPRate tune the MLP family (hidden layer
	// width, SGD epochs, learning rate); zero selects the defaults
	// (16/30/0.05). Other families ignore them and never hash them.
	MLPHidden int
	MLPEpochs int
	MLPRate   float64
	// Ranking enables the list-wise ranking head of the DL-perspective
	// attack: each scored v-pin's candidate list is softmax-normalised in
	// place (see pairs.Ranked). The softmax is monotone within a list, so
	// candidate rankings, CCR, and accuracy-at-K are unchanged; score-scale
	// consumers (figure-of-merit, threshold sweeps) see a per-list
	// probability distribution instead of raw classifier outputs.
	Ranking bool
	// Seed is the root of all randomness of a run. Every random decision —
	// training-set sampling, tree induction, level-2 negative draws,
	// proximity validation splits — draws from an independent stream
	// derived from Seed and the unit's coordinates via rng.Derive, so
	// results depend only on Seed, never on Workers or scheduling.
	Seed int64
	// Workers bounds the goroutines used for per-target runs, ensemble
	// training, level-2 scoring, and candidate-pair scoring. Zero or
	// negative selects GOMAXPROCS. Results are bit-identical at any
	// worker count.
	Workers int
	// Obs, when non-nil, receives structured logs, per-phase spans, and
	// metrics from every stage of the run. A nil Obs disables all
	// instrumentation at no cost.
	Obs *obs.Context
	// Models, when non-nil, caches trained artifacts by spec content hash:
	// repeated folds (threshold sweeps, config variants sharing a level-1
	// model) become cache hits instead of retrainings. A nil store trains
	// every target fresh. Results are bit-identical either way.
	Models *model.Store
}

// Scorer is the classifier interface the attack engine consumes: a
// probability that a feature vector describes a truly matching v-pin pair.
// It is the pairs package's Scorer — the attack engine scores candidates
// exclusively through the shared pair pipeline (see internal/pairs).
type Scorer = pairs.Scorer

// BatchScorer is a Scorer that can score a whole row-major feature matrix
// in one call; see pairs.BatchScorer for the contract. The engine scores
// each v-pin's gathered candidates through it; a Prob-only family's model
// is adapted to score the same gathered arena row by row.
type BatchScorer = pairs.BatchScorer

var (
	_ BatchScorer = (*ml.Ensemble)(nil)
	_ BatchScorer = (*ml.MLP)(nil)
)

// TrainOptions projects the configuration's training-relevant fields into
// the model package's option struct — the one place training options live.
// The learner family travels by name; the model package resolves it through
// its registry, so every family the attack engine can name is hashable,
// serializable, and cacheable.
func (c Config) TrainOptions() model.TrainOptions {
	return model.TrainOptions{
		Name:             c.Name,
		Features:         c.Features,
		Neighborhood:     c.Neighborhood,
		NeighborQuantile: c.NeighborQuantile,
		LimitDiffVpinY:   c.LimitDiffVpinY,
		TwoLevel:         c.TwoLevel,
		BaseKind:         c.BaseKind,
		NumTrees:         c.NumTrees,
		MaxLoCFrac:       c.MaxLoCFrac,
		MaxLoCCount:      c.MaxLoCCount,
		TrainCap:         c.TrainCap,
		Family:           c.Family,
		MLPHidden:        c.MLPHidden,
		MLPEpochs:        c.MLPEpochs,
		MLPRate:          c.MLPRate,
		ShardVpins:       c.ShardVpins,
	}
}

// trainSpec builds the model spec for training on trainInsts with this
// configuration's options, seeded for the given held-out fold. span, when
// non-nil, is the parent the training stage's progress spans nest under.
func (c Config) trainSpec(trainInsts []*Instance, target int, radiusNorm float64, span *obs.Span) model.Spec {
	spec := model.NewSpec(c.TrainOptions(), c.Seed, target, trainInsts, radiusNorm)
	spec.Workers = c.Workers
	spec.Obs = c.Obs
	spec.Span = span
	return spec
}

func (c Config) withDefaults() Config {
	to := c.TrainOptions().WithDefaults()
	c.NeighborQuantile = to.NeighborQuantile
	c.NumTrees = to.NumTrees
	c.MaxLoCFrac = to.MaxLoCFrac
	c.Features = to.Features
	c.Family = to.Family
	c.MLPHidden = to.MLPHidden
	c.MLPEpochs = to.MLPEpochs
	c.MLPRate = to.MLPRate
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("attack: config without name")
	}
	for _, f := range c.Features {
		if f < 0 || f >= features.NumAll {
			return fmt.Errorf("attack: config %s: feature index %d out of range", c.Name, f)
		}
	}
	if _, err := model.FamilyByName(c.Family); err != nil {
		return fmt.Errorf("attack: config %s: %w", c.Name, err)
	}
	if c.MaxLoCCount < 0 {
		return fmt.Errorf("attack: config %s: MaxLoCCount %d must not be negative", c.Name, c.MaxLoCCount)
	}
	if c.ShardVpins < 0 {
		return fmt.Errorf("attack: config %s: ShardVpins %d must not be negative", c.Name, c.ShardVpins)
	}
	return nil
}

// retainCap is the per-v-pin candidate-list bound of this configuration for
// a design with n v-pins: the fractional LoCCap, tightened by the absolute
// MaxLoCCount when set.
func (c Config) retainCap(n int) int {
	capPer := pairs.LoCCap(n, c.MaxLoCFrac)
	if c.MaxLoCCount > 0 && c.MaxLoCCount < capPer {
		capPer = c.MaxLoCCount
	}
	return capPer
}

// ML9 is the baseline configuration: the first nine features, no
// scalability improvement ("ML" in the paper's predecessor [18]).
func ML9() Config {
	return Config{Name: "ML-9", Features: features.Set9()}
}

// Imp9 is ML9 plus the neighborhood scalability improvement.
func Imp9() Config {
	return Config{Name: "Imp-9", Features: features.Set9(), Neighborhood: true}
}

// Imp7 removes the two least important features from Imp9 ("ML-Imp" in
// [18]).
func Imp7() Config {
	return Config{Name: "Imp-7", Features: features.Set7(), Neighborhood: true}
}

// Imp11 uses all eleven features, including the congestion measurements.
func Imp11() Config {
	return Config{Name: "Imp-11", Features: features.Set11(), Neighborhood: true}
}

// WithY returns the "Y" variant of a configuration: DiffVpinY limited to
// zero, for attacks on the highest via layer.
func WithY(c Config) Config {
	c.Name += "Y"
	c.LimitDiffVpinY = true
	return c
}

// WithTwoLevel returns the two-level-pruning variant of a configuration.
func WithTwoLevel(c Config) Config {
	c.TwoLevel = true
	return c
}

// WithBase returns c with a different Bagging base classifier and ensemble
// size (0 = Weka default for the kind).
func WithBase(c Config, kind ml.TreeKind, trees int) Config {
	c.BaseKind = kind
	c.NumTrees = trees
	return c
}

// WithFamily returns c trained with the named learner family (see
// model.Families for the registered names).
func WithFamily(c Config, family string) Config {
	c.Family = family
	return c
}

// WithRanking returns c with the list-wise ranking head enabled.
func WithRanking(c Config) Config {
	c.Ranking = true
	return c
}

// DLMLP is the DL-perspective configuration (Li et al., DAC'19/TCAD'20
// recast onto this engine): the full feature set including the
// routing-hint block, neighborhood sampling, and the MLP learner family.
func DLMLP() Config {
	return Config{
		Name:         "DL-MLP",
		Features:     features.Set15(),
		Neighborhood: true,
		Family:       model.FamilyMLP,
	}
}

// DLMLPRank is DLMLP with the list-wise ranking head.
func DLMLPRank() Config {
	c := WithRanking(DLMLP())
	c.Name = "DL-MLP-rank"
	return c
}

// StandardConfigs returns the four headline configurations of the paper's
// experiments in presentation order.
func StandardConfigs() []Config {
	return []Config{ML9(), Imp9(), Imp7(), Imp11()}
}

// ConfigByName resolves a named configuration preset by its report name
// ("ML-9", "Imp-11", "Imp-7Y", "DL-MLP", ...), covering StandardConfigs,
// their "Y" variants, and the DL-perspective configurations. Commands and
// the job server accept these names as config presets.
func ConfigByName(name string) (Config, bool) {
	for _, c := range ConfigPresets() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// ConfigPresets lists every named configuration preset ConfigByName
// resolves, in presentation order. The serve layer's GET /configs endpoint
// reports these names.
func ConfigPresets() []Config {
	presets := append(StandardConfigs(), StandardConfigsY()...)
	return append(presets, DLMLP(), DLMLPRank())
}

// StandardConfigsY returns the four "Y" variants evaluated at split layer 8.
func StandardConfigsY() []Config {
	return []Config{WithY(ML9()), WithY(Imp9()), WithY(Imp7()), WithY(Imp11())}
}
