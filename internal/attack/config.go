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
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
)

// Config selects one of the paper's model configurations: the options
// the model layer declares (feature set, Imp neighbourhood, Y limit,
// two-level pruning, base classifier, learner family, retention bounds;
// see model.TrainOptions, whose defaults, validity, pair filter and
// retention cap the Config promotes), plus what scoring and the run read.
type Config struct {
	model.TrainOptions
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

func (c Config) withDefaults() Config {
	c.TrainOptions = c.TrainOptions.WithDefaults()
	return c
}

// ML9 is the baseline configuration: the first nine features, no
// scalability improvement ("ML" in the paper's predecessor [18]).
func ML9() Config {
	return Config{TrainOptions: model.TrainOptions{Name: "ML-9", Features: features.Set9()}}
}

// Imp9 is ML9 plus the neighborhood scalability improvement.
func Imp9() Config {
	return Config{TrainOptions: model.TrainOptions{Name: "Imp-9", Features: features.Set9(), Neighborhood: true}}
}

// Imp7 removes the two least important features from Imp9 ("ML-Imp" in
// [18]).
func Imp7() Config {
	return Config{TrainOptions: model.TrainOptions{Name: "Imp-7", Features: features.Set7(), Neighborhood: true}}
}

// Imp11 uses all eleven features, including the congestion measurements.
func Imp11() Config {
	return Config{TrainOptions: model.TrainOptions{Name: "Imp-11", Features: features.Set11(), Neighborhood: true}}
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
	return Config{TrainOptions: model.TrainOptions{
		Name:         "DL-MLP",
		Features:     features.Set15(),
		Neighborhood: true,
		Family:       model.FamilyMLP,
	}}
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
