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
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/pairs"
)

// TrainOptions is the training-relevant slice of an attack configuration:
// everything that influences the trained model's bits, plus the unhashed
// presentation field (Name) and execution field (ShardVpins). attack.Config
// projects into this struct, so the options live in one place instead of
// being re-derived by every training stage.
type TrainOptions struct {
	// Name labels the configuration in logs and artifact metadata. It does
	// not influence training and is excluded from spec hashes.
	Name string
	// Features are the feature indices trees may split on.
	Features []int
	// Neighborhood enables the Imp scalability improvement (§III-D).
	Neighborhood bool
	// NeighborQuantile is the CDF cut defining the neighborhood radius;
	// zero selects the paper's 0.90.
	NeighborQuantile float64
	// LimitDiffVpinY enables the "Y" refinement (§III-G).
	LimitDiffVpinY bool
	// TwoLevel enables two-level pruning (§III-E): the artifact carries a
	// second ensemble trained on level-1 survivors.
	TwoLevel bool
	// BaseKind is the Bagging base classifier.
	BaseKind ml.TreeKind
	// NumTrees is the ensemble size; zero selects the Weka default for the
	// base kind.
	NumTrees int
	// MaxLoCFrac bounds the per-v-pin candidate lists the two-level stage
	// draws its negatives from. It only influences training under TwoLevel
	// and is hashed only then, so one- and two-level configurations share
	// level-1 artifacts.
	MaxLoCFrac float64
	// MaxLoCCount, when positive, additionally caps those lists at an
	// absolute length (the industrial-scale memory bound). Like MaxLoCFrac
	// it influences training only under TwoLevel and is hashed only then —
	// and only when set, so every pre-existing spec hash is unchanged.
	MaxLoCCount int
	// TrainCap bounds the number of training samples (0 = unlimited).
	TrainCap int
	// Family selects the registered learner family ("" = FamilyBagging,
	// the paper's ensemble). Every family hashes, caches, serializes, and
	// checkpoints identically; see Family and the registry in family.go.
	Family string
	// MLPHidden, MLPEpochs, and MLPRate configure the mlp family's network
	// (zero selects its defaults, resolved by WithDefaults). Other families
	// ignore and never hash them.
	MLPHidden int
	MLPEpochs int
	MLPRate   float64
	// ShardVpins is the spatial-region size of the streamed candidate
	// scoring the level-2 stage runs over the training designs (0 = auto).
	// Results are bit-identical for every value, so it is an execution
	// knob excluded from spec hashes.
	ShardVpins int
}

// WithDefaults resolves the zero-value conveniences exactly as
// attack.Config always has.
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
