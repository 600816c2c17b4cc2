// Package model owns the attack's train stage: it turns a training Spec —
// the held-out fold's training designs, the attack configuration's training
// options, and the seed — into an Artifact holding the compiled flat-arena
// ensembles plus metadata, with a canonical content hash per Spec, a
// versioned binary codec for artifacts, and a Store that makes repeated
// folds and sweeps cache hits (in-memory LRU plus an optional on-disk
// directory). The attack engine consumes Artifacts through the pairs
// scoring backends; training here is bit-identical to training in-process
// at any worker count because every random stream is derived from
// (Seed, unit, Fold, ...) exactly as the engine always did.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/pairs"
)

// TrainOptions are an attack configuration's options: everything that
// influences a trained model's bits or a fold's scoring, plus the unhashed
// presentation field (Name) and execution field (ShardVpins). attack.Config
// embeds this struct, so each option is declared once, here, and its
// defaults (WithDefaults), validity (Validate), pair filter (Filter) and
// retention cap (RetainCap) are derived once, by the methods below.
type TrainOptions struct {
	// Name labels the configuration in reports ("ML-9", "Imp-11Y", ...) and
	// artifact metadata. It is digested into every Evaluation but does not
	// influence training, so it is excluded from spec hashes.
	Name string
	// Features are the feature indices trees may split on; empty selects
	// the first nine (features.Set9).
	Features []int
	// Neighborhood enables the Imp scalability improvement (§III-D):
	// training samples and tested pairs are restricted to v-pins within a
	// radius derived from the matched-pair ManhattanVpin distribution of
	// the training designs.
	Neighborhood bool
	// NeighborQuantile is the CDF cut defining the neighborhood radius;
	// zero selects the paper's 0.90.
	NeighborQuantile float64
	// LimitDiffVpinY enables the "Y" refinement (§III-G): only pairs with
	// DiffVpinY = 0 are trained on and tested, exploiting the single
	// routing direction above the highest via layer. Only meaningful when
	// attacking split layer 8.
	LimitDiffVpinY bool
	// TwoLevel enables two-level pruning (§III-E): the artifact carries a
	// second ensemble trained on level-1 survivors.
	TwoLevel bool
	// BaseKind is the Bagging base classifier; the paper's final models
	// use REPTree, its predecessor [18] used RandomTree.
	BaseKind ml.TreeKind
	// NumTrees is the ensemble size; zero selects the Weka default for the
	// base kind (10 for REPTree, 100 for RandomTree).
	NumTrees int
	// MaxLoCFrac bounds the per-v-pin candidate list retained when scoring,
	// as a fraction of the design's v-pin count; zero selects 0.15. Metrics
	// are exact for LoC fractions up to this bound; the paper's tables
	// query at most 10%. Under TwoLevel the same bound limits the level-1
	// lists the pruning stage draws its negatives from, so it is hashed
	// into a spec only then, and one- and two-level configurations share
	// level-1 artifacts.
	MaxLoCFrac float64
	// MaxLoCCount, when positive, additionally caps every retained list at
	// an absolute length. At industrial scale the fractional bound alone
	// retains gigabytes (0.15 of 30k v-pins is 4.5k candidates each); the
	// absolute cap keeps an Evaluation's memory proportional to N while
	// every metric and Evaluation.Digest stay exact for queries within the
	// bound. Like MaxLoCFrac it is hashed into a spec only under TwoLevel,
	// and only when set, so every pre-existing spec hash is unchanged.
	MaxLoCCount int
	// TrainCap bounds the number of training samples (0 = unlimited);
	// when exceeded, a balanced random subsample is used.
	TrainCap int
	// Family selects the registered learner family ("" = FamilyBagging,
	// the paper's ensemble; FamilyMLP, the DL-perspective perceptron;
	// FamilyLogistic, the linear ablation baseline). Every family hashes,
	// caches, serializes, and checkpoints identically; see Family and the
	// registry in family.go.
	Family string
	// MLPHidden, MLPEpochs, and MLPRate configure the mlp family's network
	// (hidden width, SGD epochs, learning rate); zero selects 16/30/0.05.
	// Other families ignore and never hash them.
	MLPHidden int
	MLPEpochs int
	MLPRate   float64
	// ShardVpins is the spatial-region size of the streamed candidate
	// scoring, both of a held-out design and of the level-2 stage's
	// training designs (0 = auto). Results are bit-identical for every
	// value, so it is an execution knob excluded from every hash.
	ShardVpins int
}

// WithDefaults resolves the zero-value conveniences.
func (o TrainOptions) WithDefaults() TrainOptions {
	if o.NeighborQuantile <= 0 || o.NeighborQuantile > 1 {
		o.NeighborQuantile = 0.90
	}
	if o.NumTrees <= 0 {
		if o.BaseKind == ml.RandomTree {
			o.NumTrees = ml.DefaultForestSize
		} else {
			o.NumTrees = ml.DefaultBaggingSize
		}
	}
	if o.MaxLoCFrac <= 0 || o.MaxLoCFrac > 1 {
		o.MaxLoCFrac = 0.15
	}
	if len(o.Features) == 0 {
		o.Features = features.Set9()
	}
	// The zero value and the explicit name mean the same family; normalise
	// to "" so default configurations hash (and serialize their Meta)
	// exactly as they did before the family axis existed.
	if o.Family == FamilyBagging {
		o.Family = ""
	}
	if o.Family == FamilyMLP {
		if o.MLPHidden <= 0 {
			o.MLPHidden = 16
		}
		if o.MLPEpochs <= 0 {
			o.MLPEpochs = 30
		}
		if o.MLPRate <= 0 {
			o.MLPRate = 0.05
		}
	}
	return o
}

// Validate rejects options no run can use: a missing name, a feature
// index outside the extractor's columns, an unregistered family, and an
// option value outside its range. Zero still selects each default; a
// negative, NaN or (for the fractions) above-one value is an error rather
// than a silent default.
func (o TrainOptions) Validate() error {
	if o.Name == "" {
		return errors.New("model: config without name")
	}
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("model: config %s: "+format, append([]any{o.Name}, args...)...)
	}
	for _, f := range o.Features {
		if f < 0 || f >= features.NumAll {
			return invalid("feature index %d out of range", f)
		}
	}
	if _, err := FamilyByName(o.Family); err != nil {
		return invalid("%w", err)
	}
	for _, v := range []struct {
		name  string
		value float64
	}{{"NeighborQuantile", o.NeighborQuantile}, {"MaxLoCFrac", o.MaxLoCFrac}} {
		if !(v.value >= 0 && v.value <= 1) {
			return invalid("%s %g outside [0, 1]", v.name, v.value)
		}
	}
	for _, v := range []struct {
		name  string
		value int
	}{{"NumTrees", o.NumTrees}, {"MaxLoCCount", o.MaxLoCCount}, {"ShardVpins", o.ShardVpins},
		{"TrainCap", o.TrainCap}, {"MLPHidden", o.MLPHidden}, {"MLPEpochs", o.MLPEpochs}} {
		if v.value < 0 {
			return invalid("%s %d must not be negative", v.name, v.value)
		}
	}
	if !(o.MLPRate >= 0) || math.IsInf(o.MLPRate, 1) {
		return invalid("MLPRate %g must be finite and not negative", o.MLPRate)
	}
	return nil
}

// RetainCap is the per-v-pin candidate-list bound for a design of n
// v-pins: the fractional LoCCap, tightened by the absolute MaxLoCCount
// when set. The scorer and the two-level stage both retain under it.
func (o TrainOptions) RetainCap(n int) int {
	capPer := pairs.LoCCap(n, o.MaxLoCFrac)
	if o.MaxLoCCount > 0 && o.MaxLoCCount < capPer {
		capPer = o.MaxLoCCount
	}
	return capPer
}

// TreeOptions returns the base-classifier options for ensemble training.
func (o TrainOptions) TreeOptions() ml.TreeOptions {
	opts := ml.TreeOptions{Kind: o.BaseKind, Features: o.Features}
	if o.BaseKind == ml.RandomTree {
		opts.MinLeaf = 1 // Weka RandomTree default
	}
	return opts
}

// Filter builds the pair-admission filter of these options for one
// instance: the neighborhood radius applies only under the Imp improvement,
// the DiffVpinY limit only under the "Y" refinement.
func (o TrainOptions) Filter(inst *pairs.Instance, radiusNorm float64) pairs.Filter {
	if !o.Neighborhood {
		radiusNorm = -1
	}
	return inst.Filter(radiusNorm, o.LimitDiffVpinY)
}

// FeatureNames maps the configured feature indices to their display names
// (the paper's for the base block, the routing-hint names past it).
func (o TrainOptions) FeatureNames() []string {
	out := make([]string, len(o.Features))
	for i, f := range o.Features {
		out[i] = features.Name(f)
	}
	return out
}
