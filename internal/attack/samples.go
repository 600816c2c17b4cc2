package attack

import (
	"math/rand"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/pairs"
)

// Instance is the per-(design, split layer) state of the pair pipeline;
// see the pairs package, which owns it. The alias keeps the attack API
// stable while every consumer shares one pipeline.
type Instance = pairs.Instance

// NeighborRadiusNorm pools the normalised matched-pair distances of the
// given (training) instances and returns their q-quantile — the
// neighborhood radius of the Imp configurations, as a fraction of die
// width (paper §III-D, Fig. 4).
func NeighborRadiusNorm(insts []*Instance, q float64) float64 {
	return pairs.NeighborRadiusNorm(insts, q)
}

// TrainingSet generates the balanced sample set of §III-B from the given
// training instances: one positive (true match) per v-pin plus one random
// admitted negative per v-pin. onlyVpins, when non-nil, restricts sample
// generation to the listed v-pins of each instance (used by the proximity
// attack's 80/20 validation split). The sampling stage lives in the model
// package; this wrapper projects the configuration's training options.
func TrainingSet(cfg Config, insts []*Instance, radiusNorm float64,
	onlyVpins [][]int, rng *rand.Rand) *ml.Dataset {
	return model.TrainingSet(cfg.Obs, cfg.TrainOptions, insts, radiusNorm, onlyVpins, rng)
}
