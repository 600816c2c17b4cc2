package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/pairs"
)

// Stream units name the independent random streams one training fold
// consumes. Every stream is derived as rng.Derive(Seed, unit, Fold,
// index...), so a unit's draws depend only on the seed and its coordinates
// — never on what other units consumed or on which worker ran them. The
// values are the ones the attack engine has always used; renumbering them
// changes every downstream result, so treat them like the golden values in
// internal/rng. (The proximity-attack units 5 and 6 stay in
// internal/attack: they belong to the validation stage, not training.)
const (
	UnitSampling    int64 = iota + 1 // training-set sampling for one fold
	UnitLevel1                       // level-1 ensemble training (per tree)
	UnitLevel2Neg                    // level-2 negative draws (per instance)
	UnitLevel2Model                  // level-2 ensemble training (per tree)
)

// Spec describes one training run completely enough to reproduce its bits:
// the training designs (leave-one-out fold), the training options, the
// seed, and the neighborhood radius. Hash() is a canonical content address
// over exactly the fields that influence the trained model, which is what
// makes the Store's train-once/score-many caching sound.
type Spec struct {
	// Opts are the training options (defaults applied by NewSpec).
	Opts TrainOptions
	// Seed is the root of all randomness.
	Seed int64
	// Fold is the held-out target's index in the full design list — the
	// rng coordinate every training stream is derived with.
	Fold int
	// SplitLayer is the common split layer of the training designs.
	SplitLayer int
	// Designs are the training designs' names, in training order.
	Designs []string
	// DataDigest fingerprints the training designs' v-pin tables (the
	// attack's entire interface to a design); see dataDigest.
	DataDigest string
	// RadiusNorm is the Imp neighborhood radius as a fraction of die width
	// (-1 without the improvement). It is derived from the training
	// designs but hashed explicitly: it is an input to sampling.
	RadiusNorm float64

	// Runtime state, never hashed: the prepared training instances, the
	// worker bound, and the observability context/parent span training
	// reports under.
	Insts   []*pairs.Instance
	Workers int
	Obs     *obs.Context
	Span    *obs.Span
}

// NewSpec builds the Spec for training on insts with the given options,
// seed, and fold index, deriving the split layer, design names, and data
// digest from the instances. Defaults are applied to opts.
func NewSpec(opts TrainOptions, seed int64, fold int, insts []*pairs.Instance, radiusNorm float64) Spec {
	spec := Spec{
		Opts:       opts.WithDefaults(),
		Seed:       seed,
		Fold:       fold,
		Designs:    make([]string, len(insts)),
		DataDigest: dataDigest(insts),
		RadiusNorm: radiusNorm,
		Insts:      insts,
	}
	if len(insts) > 0 {
		spec.SplitLayer = insts[0].Ch.SplitLayer
	}
	for i, inst := range insts {
		spec.Designs[i] = inst.Ch.Design.Name
	}
	return spec
}

// Level1 returns the spec of this spec's level-1 model: TwoLevel cleared.
// Because Hash covers MaxLoCFrac only under TwoLevel, the one-level
// configuration and the level-1 stage of its two-level variant share one
// hash — and therefore one cached artifact.
func (s Spec) Level1() Spec {
	s.Opts.TwoLevel = false
	return s
}

// Hash is the spec's canonical content address: a SHA-256 over a versioned
// serialization of every training-relevant field. Fields that cannot change
// the trained bits — Name, Workers, ShardVpins, observability — are
// excluded, so presentation and execution differences still hit the cache.
// The learner-specific options are serialized by the spec's Family
// (HashOptions), whose bagging implementation writes the exact bytes the
// pre-family format did — every hash minted before the family axis existed
// is unchanged.
func (s Spec) Hash() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model-spec/v1\n")
	level := 1
	if s.Opts.TwoLevel {
		level = 2
	}
	fmt.Fprintf(&b, "level=%d\n", level)
	fmt.Fprintf(&b, "seed=%d fold=%d layer=%d\n", s.Seed, s.Fold, s.SplitLayer)
	fmt.Fprintf(&b, "designs=%s\n", strings.Join(s.Designs, ","))
	fmt.Fprintf(&b, "data=%s\n", s.DataDigest)
	fmt.Fprintf(&b, "radius=%016x\n", math.Float64bits(s.RadiusNorm))
	fmt.Fprintf(&b, "features=%v\n", s.Opts.Features)
	fmt.Fprintf(&b, "neighborhood=%t quantile=%016x ylimit=%t\n",
		s.Opts.Neighborhood, math.Float64bits(s.Opts.NeighborQuantile), s.Opts.LimitDiffVpinY)
	mustFamily(s.Opts.Family).HashOptions(&b, s.Opts)
	if s.Opts.TwoLevel {
		// MaxLoCFrac bounds the level-1 candidate lists the level-2 stage
		// draws negatives from; without TwoLevel it only affects scoring.
		fmt.Fprintf(&b, "maxlocfrac=%016x\n", math.Float64bits(s.Opts.MaxLoCFrac))
		// The absolute cap tightens those same lists, so it joins the hash
		// under TwoLevel — but only when set, keeping every hash minted
		// before the field existed (and every uncapped config) unchanged.
		if s.Opts.MaxLoCCount > 0 {
			fmt.Fprintf(&b, "maxloccount=%d\n", s.Opts.MaxLoCCount)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// dataDigest fingerprints the training instances through the attack's
// interface to them: design name, split layer, and the full v-pin table
// (positions, pin locations, wirelengths, areas, ground-truth matches) plus
// the die width that normalises distances. Two instance lists with equal
// digests yield byte-equal feature rows, since the extractor's congestion
// grids are built from the same generated layouts the v-pin tables came
// from.
func dataDigest(insts []*pairs.Instance) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, inst := range insts {
		fmt.Fprintf(h, "design=%s layer=%d n=%d\n",
			inst.Ch.Design.Name, inst.Ch.SplitLayer, inst.N())
		u64(math.Float64bits(inst.DieWidth()))
		for i := range inst.Ch.VPins {
			vp := &inst.Ch.VPins[i]
			u64(uint64(vp.Pos.X))
			u64(uint64(vp.Pos.Y))
			u64(uint64(vp.PinLoc.X))
			u64(uint64(vp.PinLoc.Y))
			u64(uint64(vp.Wirelength))
			u64(math.Float64bits(vp.InArea))
			u64(math.Float64bits(vp.OutArea))
			u64(uint64(int64(vp.Match)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
