// Package layout assembles complete placed-and-routed designs and generates
// the synthetic benchmark suite standing in for the ISPD-2011 superblue
// layouts the paper evaluates on. Each suite design has its own size,
// locality mix, congestion personality, and trunk-layer population, scaled
// so the relative v-pin counts across designs and split layers track the
// paper's Table I.
package layout

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/route"
)

// Design is a fully placed and routed benchmark.
type Design struct {
	Name      string
	Netlist   *netlist.Netlist
	Placement *place.Placement
	Routing   *route.Routing
}

// Die returns the design's die rectangle.
func (d *Design) Die() geom.Rect { return d.Placement.Die }

// Profile describes how to generate one benchmark design.
type Profile struct {
	Name string
	// Seed makes the design reproducible.
	Seed int64
	// DieSize is the edge length of the square die.
	DieSize geom.Coord
	// NumCells / NumMacros / NumNets size the netlist.
	NumCells  int
	NumMacros int
	NumNets   int
	// SeqFraction is the flip-flop fraction.
	SeqFraction float64
	// Clusters / ClusterTightness shape placement density.
	Clusters         int
	ClusterTightness float64
	// Reach is the net-locality mix (MeanReach values in fractions of the
	// die width; converted to DBU at generation time).
	Reach []ReachFrac
	// TrunkTargets gives the desired number of nets per trunk-layer group;
	// see layerFracs.
	TrunkTargets TrunkTargets
	// Router personality.
	PromoteProb  float64
	EscapeJitter float64
	DetourProb   float64
}

// ReachFrac is a locality class with reach expressed relative to die width.
type ReachFrac struct {
	Frac  float64
	Reach float64 // fraction of die width
}

// TrunkTargets is the desired net population of the high trunk-layer
// groups: T9 (cut by split 8), T7+T8 (additionally cut by split 6), and
// T5+T6 (additionally cut by split 4). Remaining nets stay on M2..M4.
type TrunkTargets struct {
	T9, T78, T56 int
}

// layerFracs converts trunk targets to per-layer fractions for the router.
// Group totals are split evenly between their two layers, and the local
// remainder is distributed bottom-heavy over M2..M4.
func layerFracs(tt TrunkTargets, totalNets int) [route.NumMetal + 1]float64 {
	var f [route.NumMetal + 1]float64
	n := float64(totalNets)
	f[9] = float64(tt.T9) / n
	f[8] = float64(tt.T78) / 2 / n
	f[7] = f[8]
	f[6] = float64(tt.T56) / 2 / n
	f[5] = f[6]
	rest := 1 - (f[9] + f[8] + f[7] + f[6] + f[5])
	if rest < 0 {
		rest = 0
	}
	f[4] = rest * 0.18
	f[3] = rest * 0.30
	f[2] = rest * 0.52
	return f
}

// Generate builds a complete design from a profile. Generation is
// deterministic in the profile (including its seed).
func Generate(p Profile) (*Design, error) {
	if p.NumCells <= 0 || p.NumNets <= 0 {
		return nil, fmt.Errorf("layout: profile %q missing sizes", p.Name)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	lib := cell.DefaultLibrary()

	cells, err := netlist.GenerateCells(lib, netlist.CellMixConfig{
		NumCells:    p.NumCells,
		NumMacros:   p.NumMacros,
		SeqFraction: p.SeqFraction,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("layout: %s: %w", p.Name, err)
	}
	nl := &netlist.Netlist{Lib: lib, Cells: cells}

	die := geom.R(0, 0, p.DieSize, p.DieSize)
	pl, err := place.Place(nl, place.Config{
		Die:               die,
		Clusters:          p.Clusters,
		ClusterTightness:  p.ClusterTightness,
		UtilisationTarget: 0.9,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("layout: %s: %w", p.Name, err)
	}

	classes := make([]netlist.ReachClass, len(p.Reach))
	for i, rc := range p.Reach {
		classes[i] = netlist.ReachClass{
			Frac:      rc.Frac,
			MeanReach: geom.Coord(rc.Reach * float64(p.DieSize)),
		}
	}
	nets, err := netlist.GenerateNets(cells, pl.Origin, die, netlist.NetGenConfig{
		NumNets: p.NumNets,
		Classes: classes,
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("layout: %s: %w", p.Name, err)
	}
	nl.Nets = nets
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("layout: %s: generated netlist invalid: %w", p.Name, err)
	}

	rcfg := route.Config{
		LayerFracs:   layerFracs(p.TrunkTargets, len(nets)),
		PromoteProb:  p.PromoteProb,
		EscapeJitter: p.EscapeJitter,
		DetourProb:   p.DetourProb,
	}
	routing, err := route.BuildRouting(nl, pl, rcfg, rng)
	if err != nil {
		return nil, fmt.Errorf("layout: %s: %w", p.Name, err)
	}
	return &Design{Name: p.Name, Netlist: nl, Placement: pl, Routing: routing}, nil
}

// Suite tiers. The standard tier is the original five-design suite —
// superblue-like personalities at roughly 1/20th of the paper's sizes,
// small enough that every-configuration sweeps finish in minutes. The
// industrial tier is the superblue-class preset: three designs of 100k+
// cells each (at Scale 1), the size regime where the paper's results
// actually live.
const (
	TierStandard   = "standard"
	TierIndustrial = "industrial"
)

// Tiers lists the valid suite tiers.
func Tiers() []string { return []string{TierStandard, TierIndustrial} }

// ValidTier reports whether name is a known suite tier ("" selects
// standard).
func ValidTier(name string) bool {
	return name == "" || name == TierStandard || name == TierIndustrial
}

// SuiteConfig controls benchmark suite generation.
type SuiteConfig struct {
	// Tier selects the suite: TierStandard ("" included) or TierIndustrial.
	Tier string
	// Scale multiplies all net/cell counts. Scale 1.0 corresponds to
	// roughly 1/20th of the paper's industrial designs on the standard
	// tier — large enough to preserve the relative v-pin populations,
	// small enough that a full leave-one-out sweep of every configuration
	// finishes in minutes — and to the paper-faithful 100k+-cell sizes on
	// the industrial tier. Above 1.0 the die edge grows with sqrt(Scale)
	// so placement density, and with it each design's congestion
	// personality, is preserved; at and below 1.0 the die is fixed,
	// keeping every historical (scale, seed) suite bit-identical.
	Scale float64
	// Seed offsets all design seeds, for generating independent suites.
	Seed int64
	// Workers bounds the goroutines generating designs concurrently. Zero
	// or negative selects GOMAXPROCS. Each design is generated from its own
	// profile seed, so the suite is identical at any worker count.
	Workers int
}

// SuiteProfiles returns the design profiles of the configured tier at the
// given scale, or nil for an unknown tier. Relative sizes and per-design
// personalities follow the paper: sb12 is the largest and most congested
// (largest LoCs), sb10 has a distinct v-pin distribution with shorter
// top-layer nets (highest proximity-attack success), sb18 is the smallest.
func SuiteProfiles(cfg SuiteConfig) []Profile {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	switch cfg.Tier {
	case "", TierStandard:
		return standardProfiles(cfg)
	case TierIndustrial:
		return industrialProfiles(cfg)
	}
	return nil
}

// dieEdge grows a tier-base die edge with the square root of the total
// size multiplier above 1, so cell density — and with it routing
// congestion, the personality knob the suite is calibrated around — stays
// constant as designs scale up. Multipliers at or below 1 keep the base
// edge: the pre-tier suites never scaled the die, and their layouts must
// stay bit-identical.
func dieEdge(base geom.Coord, mult float64) geom.Coord {
	if mult <= 1 {
		return base
	}
	return geom.Coord(float64(base) * math.Sqrt(mult))
}

// standardProfiles is the original five-design suite.
func standardProfiles(cfg SuiteConfig) []Profile {
	s := cfg.Scale
	scale := func(n float64) int {
		v := int(n * s)
		if v < 1 {
			v = 1
		}
		return v
	}
	stdReach := []ReachFrac{
		{Frac: 0.55, Reach: 0.02},
		{Frac: 0.30, Reach: 0.055},
		{Frac: 0.15, Reach: 0.14},
	}
	profiles := []Profile{
		{
			Name: "sb1", Seed: cfg.Seed + 101, DieSize: dieEdge(36000, s),
			NumCells: scale(9600), NumMacros: 4, NumNets: scale(10680), SeqFraction: 0.12,
			Clusters: 4, ClusterTightness: 0.55, Reach: stdReach,
			TrunkTargets: TrunkTargets{T9: scale(196), T78: scale(879), T56: scale(2663)},
			PromoteProb:  0.25, EscapeJitter: 1.0, DetourProb: 0.30,
		},
		{
			Name: "sb5", Seed: cfg.Seed + 105, DieSize: dieEdge(40000, s),
			NumCells: scale(11450), NumMacros: 4, NumNets: scale(12723), SeqFraction: 0.14,
			Clusters: 5, ClusterTightness: 0.60, Reach: stdReach,
			TrunkTargets: TrunkTargets{T9: scale(275), T78: scale(1129), T56: scale(3049)},
			PromoteProb:  0.25, EscapeJitter: 1.1, DetourProb: 0.32,
		},
		{
			// sb10: distinct v-pin distribution — shorter global nets and a
			// calmer router, making nearest-candidate attacks much more
			// successful, as the paper observes for superblue10.
			Name: "sb10", Seed: cfg.Seed + 110, DieSize: dieEdge(44000, s),
			NumCells: scale(13840), NumMacros: 6, NumNets: scale(15377), SeqFraction: 0.10,
			Clusters: 3, ClusterTightness: 0.45,
			Reach: []ReachFrac{
				{Frac: 0.55, Reach: 0.02},
				{Frac: 0.33, Reach: 0.05},
				{Frac: 0.12, Reach: 0.12},
			},
			TrunkTargets: TrunkTargets{T9: scale(322), T78: scale(1858), T56: scale(3202)},
			PromoteProb:  0.15, EscapeJitter: 0.6, DetourProb: 0.15,
		},
		{
			// sb12: largest, most congested, longest nets — hardest design,
			// mirroring superblue12's outsized LoCs in the paper.
			Name: "sb12", Seed: cfg.Seed + 112, DieSize: dieEdge(48000, s),
			NumCells: scale(10965), NumMacros: 8, NumNets: scale(12183), SeqFraction: 0.16,
			Clusters: 7, ClusterTightness: 0.75,
			Reach: []ReachFrac{
				{Frac: 0.50, Reach: 0.025},
				{Frac: 0.28, Reach: 0.075},
				{Frac: 0.22, Reach: 0.18},
			},
			TrunkTargets: TrunkTargets{T9: scale(433), T78: scale(1467), T56: scale(2364)},
			PromoteProb:  0.40, EscapeJitter: 1.6, DetourProb: 0.50,
		},
		{
			Name: "sb18", Seed: cfg.Seed + 118, DieSize: dieEdge(32000, s),
			NumCells: scale(5475), NumMacros: 2, NumNets: scale(6083), SeqFraction: 0.12,
			Clusters: 3, ClusterTightness: 0.55, Reach: stdReach,
			TrunkTargets: TrunkTargets{T9: scale(188), T78: scale(652), T56: scale(1289)},
			PromoteProb:  0.25, EscapeJitter: 1.0, DetourProb: 0.30,
		},
	}
	return profiles
}

// industrialProfiles is the superblue-class tier: three designs with the
// standard suite's sb1 / sb10 / sb12 personalities (reach mix, clustering,
// router knobs) multiplied up to 100k+ cells each at Scale 1, dies grown
// with sqrt of the multiplier so density matches the standard tier. Seeds
// are derived through rng.Mix so the industrial tier's designs are
// statistically independent of the standard tier's at the same root seed;
// generation itself is the same deterministic parallel path
// (GenerateSuiteObs fans designs out across workers, each design fully
// determined by its own profile).
func industrialProfiles(cfg SuiteConfig) []Profile {
	// Size multipliers put every design above 100k cells at Scale 1 while
	// keeping the tier's full leave-one-out attack within single-digit
	// minutes on CI hardware.
	m1 := 11.5 * cfg.Scale // 110,400 cells
	m10 := 7.5 * cfg.Scale // 103,800 cells
	m12 := 9.5 * cfg.Scale // 104,167 cells
	scale := func(n, m float64) int {
		v := int(n * m)
		if v < 1 {
			v = 1
		}
		return v
	}
	stdReach := []ReachFrac{
		{Frac: 0.55, Reach: 0.02},
		{Frac: 0.30, Reach: 0.055},
		{Frac: 0.15, Reach: 0.14},
	}
	return []Profile{
		{
			Name: "sbx1", Seed: rng.Mix(cfg.Seed, 1101), DieSize: dieEdge(36000, m1),
			NumCells: scale(9600, m1), NumMacros: 4, NumNets: scale(10680, m1), SeqFraction: 0.12,
			Clusters: 4, ClusterTightness: 0.55, Reach: stdReach,
			TrunkTargets: TrunkTargets{T9: scale(196, m1), T78: scale(879, m1), T56: scale(2663, m1)},
			PromoteProb:  0.25, EscapeJitter: 1.0, DetourProb: 0.30,
		},
		{
			Name: "sbx10", Seed: rng.Mix(cfg.Seed, 1110), DieSize: dieEdge(44000, m10),
			NumCells: scale(13840, m10), NumMacros: 6, NumNets: scale(15377, m10), SeqFraction: 0.10,
			Clusters: 3, ClusterTightness: 0.45,
			Reach: []ReachFrac{
				{Frac: 0.55, Reach: 0.02},
				{Frac: 0.33, Reach: 0.05},
				{Frac: 0.12, Reach: 0.12},
			},
			TrunkTargets: TrunkTargets{T9: scale(322, m10), T78: scale(1858, m10), T56: scale(3202, m10)},
			PromoteProb:  0.15, EscapeJitter: 0.6, DetourProb: 0.15,
		},
		{
			Name: "sbx12", Seed: rng.Mix(cfg.Seed, 1112), DieSize: dieEdge(48000, m12),
			NumCells: scale(10965, m12), NumMacros: 8, NumNets: scale(12183, m12), SeqFraction: 0.16,
			Clusters: 7, ClusterTightness: 0.75,
			Reach: []ReachFrac{
				{Frac: 0.50, Reach: 0.025},
				{Frac: 0.28, Reach: 0.075},
				{Frac: 0.22, Reach: 0.18},
			},
			TrunkTargets: TrunkTargets{T9: scale(433, m12), T78: scale(1467, m12), T56: scale(2364, m12)},
			PromoteProb:  0.40, EscapeJitter: 1.6, DetourProb: 0.50,
		},
	}
}

// GenerateSuite builds the configured tier's benchmark designs.
func GenerateSuite(cfg SuiteConfig) ([]*Design, error) {
	return GenerateSuiteObs(nil, cfg)
}

// GenerateSuiteObs is GenerateSuite with per-design spans, logs, and
// counters on an observability context (nil disables them). Designs are
// generated concurrently on up to cfg.Workers goroutines (0 = GOMAXPROCS);
// each design is deterministic in its own profile seed, so the returned
// suite is identical at any worker count.
func GenerateSuiteObs(o *obs.Context, cfg SuiteConfig) ([]*Design, error) {
	profiles := SuiteProfiles(cfg)
	if profiles == nil {
		return nil, fmt.Errorf("layout: unknown suite tier %q (want %v)", cfg.Tier, Tiers())
	}
	workers := par.Workers(cfg.Workers, len(profiles))
	tier := cfg.Tier
	if tier == "" {
		tier = TierStandard
	}
	sp := o.Begin("layout.suite", obs.F("tier", tier), obs.F("scale", cfg.Scale),
		obs.F("seed", cfg.Seed), obs.F("designs", len(profiles)), obs.F("workers", workers))
	designs := make([]*Design, len(profiles))
	err := par.For(len(profiles), workers, func(_, i int) error {
		p := profiles[i]
		dsp := sp.Begin("design", obs.F("name", p.Name))
		d, err := Generate(p)
		if err != nil {
			dsp.End()
			return err
		}
		dsp.SetAttr("cells", len(d.Netlist.Cells))
		dsp.SetAttr("nets", len(d.Netlist.Nets))
		dsp.End()
		o.Metrics().Counter("layout.designs.generated").Inc()
		o.Log().Debug("design generated", "name", d.Name,
			"cells", len(d.Netlist.Cells), "nets", len(d.Netlist.Nets))
		designs[i] = d
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return designs, nil
}
