package attack

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/model"
)

// OptionsHash is a canonical content address over every configuration field
// that can change an Evaluation's bits: the display name (it is digested
// into every Evaluation), the feature set, the sampling and pruning
// refinements, the base classifier, and the retention bounds. Fields that
// are documented not to change results — Seed (a run input, not a config
// property), Workers, ShardVpins, observability, and the model store — are
// excluded, so two configs with equal hashes run to bit-identical
// evaluations given the same instances, seed, and fold.
//
// The sweep layer uses this hash as the config coordinate of its
// content-addressed work units. Every learner family serializes its
// identity here — there is no unhashable configuration, so every
// configuration checkpoints.
//
// The non-default family and ranking lines append after the historical
// fields, so every pre-family configuration (Bagging, no ranking head)
// keeps its exact historical hash; see TestOptionsHashPresetStability.
func (c Config) OptionsHash() string {
	c = c.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "attack-config/v1\n")
	fmt.Fprintf(&b, "name=%s\n", c.Name)
	fmt.Fprintf(&b, "features=%v\n", c.Features)
	fmt.Fprintf(&b, "neighborhood=%t quantile=%016x ylimit=%t twolevel=%t\n",
		c.Neighborhood, math.Float64bits(c.NeighborQuantile), c.LimitDiffVpinY, c.TwoLevel)
	fmt.Fprintf(&b, "base=%d trees=%d traincap=%d\n", c.BaseKind, c.NumTrees, c.TrainCap)
	fmt.Fprintf(&b, "maxlocfrac=%016x maxloccount=%d\n",
		math.Float64bits(c.MaxLoCFrac), c.MaxLoCCount)
	if c.Family != "" {
		fmt.Fprintf(&b, "family=%s\n", c.Family)
		if c.Family == model.FamilyMLP {
			fmt.Fprintf(&b, "mlp hidden=%d epochs=%d rate=%016x\n",
				c.MLPHidden, c.MLPEpochs, math.Float64bits(c.MLPRate))
		}
	}
	if c.Ranking {
		fmt.Fprintf(&b, "ranking=true\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
