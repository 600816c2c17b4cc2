// Package repro is a from-scratch Go reproduction of "Analysis of Security
// of Split Manufacturing Using Machine Learning" (Zeng, Zhang, Davoodi —
// DAC 2018). It bundles:
//
//   - a synthetic EDA substrate (standard-cell library, netlist generation,
//     row-based placement, 9-metal-layer global routing) standing in for
//     the ISPD-2011 industrial layouts the paper evaluates on;
//   - split-manufacturing challenge generation: FEOL views and v-pins with
//     hidden ground truth for any split (via) layer;
//   - the paper's machine-learning attack: Weka-style Bagging over REPTree
//     or RandomTree base classifiers on 11 pair-wise layout features, with
//     the Imp neighborhood scalability improvement, two-level pruning,
//     top-layer direction limits, threshold-controlled candidate lists, and
//     the validation-based proximity attack;
//   - the prior-work baselines the paper compares against; and
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation (see internal/experiments and cmd/experiments).
//
// This package is the facade: it re-exports the types and entry points a
// downstream user needs. The examples/ directory shows complete usage.
package repro

import (
	"io"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obfuscate"
	"repro/internal/sim"
	"repro/internal/split"
)

// Design is a fully placed-and-routed synthetic benchmark.
type Design = layout.Design

// DesignProfile parameterises single-design generation.
type DesignProfile = layout.Profile

// SuiteConfig parameterises benchmark-suite generation. Scale 1.0 is
// roughly 1/20th of the paper's industrial designs with the same relative
// proportions; see DESIGN.md.
type SuiteConfig = layout.SuiteConfig

// Challenge is a design cut at a split layer: the attacker-visible FEOL
// view plus hidden ground truth for scoring.
type Challenge = split.Challenge

// VPin is a virtual pin — the via stub where a net crosses the split layer.
type VPin = split.VPin

// AttackConfig selects one of the paper's model configurations.
type AttackConfig = attack.Config

// AttackResult is a leave-one-out attack run: one Evaluation per design.
type AttackResult = attack.Result

// Evaluation holds one design's scored candidate lists and all LoC/accuracy
// metrics.
type Evaluation = attack.Evaluation

// PAOutcome reports a proximity attack against one design.
type PAOutcome = attack.PAOutcome

// TradeoffPoint is one (LoC fraction, accuracy) point of a trade-off curve.
type TradeoffPoint = attack.TradeoffPoint

// GenerateSuite generates the five superblue-like benchmark designs.
func GenerateSuite(cfg SuiteConfig) ([]*Design, error) {
	return layout.GenerateSuite(cfg)
}

// GenerateDesign generates a single design from a profile.
func GenerateDesign(p DesignProfile) (*Design, error) {
	return layout.Generate(p)
}

// SuiteProfiles returns the five design profiles at the given scale, for
// callers who want to tweak them before generation.
func SuiteProfiles(cfg SuiteConfig) []DesignProfile {
	return layout.SuiteProfiles(cfg)
}

// SaveDesign writes a design in the .sml text exchange format — the stand-in
// for the GDSII/DEF hand-off of the paper's attack model.
func SaveDesign(w io.Writer, d *Design) error { return layout.Save(w, d) }

// LoadDesign parses a design written by SaveDesign.
func LoadDesign(r io.Reader) (*Design, error) { return layout.Load(r) }

// Split cuts a design at the given via layer (1..8; the paper studies 4, 6
// and 8) and extracts its v-pins.
func Split(d *Design, viaLayer int) (*Challenge, error) {
	return split.NewChallenge(d, viaLayer)
}

// SplitAll cuts every design at the same via layer.
func SplitAll(designs []*Design, viaLayer int) ([]*Challenge, error) {
	chs := make([]*Challenge, 0, len(designs))
	for _, d := range designs {
		c, err := split.NewChallenge(d, viaLayer)
		if err != nil {
			return nil, err
		}
		chs = append(chs, c)
	}
	return chs, nil
}

// ML9 is the paper's baseline configuration: the first nine pair features
// without the neighborhood scalability improvement.
func ML9() AttackConfig { return attack.ML9() }

// Imp9 restricts training and testing to the matched-pair neighborhood
// (§III-D) with the nine baseline features.
func Imp9() AttackConfig { return attack.Imp9() }

// Imp7 is Imp9 without the two least important features.
func Imp7() AttackConfig { return attack.Imp7() }

// Imp11 is Imp9 plus the two congestion features — the paper's strongest
// standard configuration.
func Imp11() AttackConfig { return attack.Imp11() }

// WithY returns the "Y" variant of a configuration (DiffVpinY limited to
// zero), for attacks on the highest via layer.
func WithY(c AttackConfig) AttackConfig { return attack.WithY(c) }

// WithTwoLevel returns the two-level-pruning variant of a configuration.
func WithTwoLevel(c AttackConfig) AttackConfig { return attack.WithTwoLevel(c) }

// WithRandomForest switches the configuration's base classifier to
// unpruned RandomTrees (Weka's RandomForest, the paper's earlier model
// [18]); trees = 0 selects the Weka default of 100.
func WithRandomForest(c AttackConfig, trees int) AttackConfig {
	return attack.WithBase(c, ml.RandomTree, trees)
}

// Scorer is the classifier interface the attack engine consumes.
type Scorer = attack.Scorer

// WithLogistic switches the configuration's learner family to L2-regularised
// logistic regression — a linear reference point between the prior work's
// linear regression and the paper's tree ensembles. Like every registered
// family, it is hashable and serializable, so logistic runs cache and
// checkpoint exactly like the tree ensembles.
func WithLogistic(c AttackConfig) AttackConfig {
	return attack.WithFamily(c, model.FamilyLogistic)
}

// WithMLP switches the configuration's learner family to the from-scratch
// multi-layer perceptron of the DL-perspective attack (Li et al.,
// DAC'19/TCAD'20). Combine with WithRanking for the full recast.
func WithMLP(c AttackConfig) AttackConfig {
	return attack.WithFamily(c, model.FamilyMLP)
}

// WithRanking enables the list-wise ranking head: every scored v-pin's
// candidate list is softmax-normalised into a probability distribution over
// its candidates. Rankings, CCR, and accuracy-at-K are unchanged; score
// scales seen by threshold sweeps differ.
func WithRanking(c AttackConfig) AttackConfig {
	return attack.WithRanking(c)
}

// DLMLP is the DL-perspective configuration: the widened feature set
// including routing hints, neighborhood sampling, and the MLP family.
func DLMLP() AttackConfig { return attack.DLMLP() }

// DefenseCost quantifies what an obfuscation transform costs the design.
type DefenseCost = obfuscate.Cost

// PerturbRoutes re-routes every net crossing the split layer with amplified
// jitter and detours — the paper's §III-I obfuscation realised as a real
// re-route. The returned design shares the netlist and placement.
func PerturbRoutes(d *Design, splitLayer int, jitterFactor float64, seed int64) (*Design, DefenseCost, error) {
	return obfuscate.PerturbRoutes(d, splitLayer, jitterFactor, seed)
}

// LiftNets promotes a fraction of nets with trunks in [fromLo, fromHi] by
// `up` layers ("wire lifting"), so a split above fromHi cuts more nets.
func LiftNets(d *Design, fromLo, fromHi, up int, frac float64, seed int64) (*Design, DefenseCost, error) {
	return obfuscate.LiftNets(d, fromLo, fromHi, up, frac, seed)
}

// JogTrunks displaces trunk endpoints of nets one metal above the split
// with short same-layer wrong-way jogs, breaking the exact track alignment
// of matching v-pins at near-zero wirelength cost — the manufacturable
// counterpart of the paper's Gaussian obfuscation noise.
func JogTrunks(d *Design, splitLayer, maxJogTracks int, frac float64, seed int64) (*Design, DefenseCost, error) {
	return obfuscate.JogTrunks(d, splitLayer, maxJogTracks, frac, seed)
}

// RunAttack executes the leave-one-out machine-learning attack on the
// given challenges (all cut at the same split layer).
func RunAttack(cfg AttackConfig, chs []*Challenge) (*AttackResult, error) {
	return attack.RunInstances(cfg, attack.NewInstancesWorkers(chs, cfg.Workers))
}

// RunProximityAttack executes the validation-based proximity attack
// (§III-H) for every design, on top of a leave-one-out attack run over the
// same challenges.
func RunProximityAttack(cfg AttackConfig, chs []*Challenge) ([]PAOutcome, error) {
	insts := attack.NewInstancesWorkers(chs, cfg.Workers)
	prior, err := attack.RunInstances(cfg, insts)
	if err != nil {
		return nil, err
	}
	return attack.RunProximityOnInstances(cfg, insts, prior)
}

// Curve evaluates the aggregate accuracy-vs-LoC-fraction trade-off of a
// run on the given fraction grid (nil selects the grid used in Fig. 9).
func Curve(res *AttackResult, fractions []float64) []TradeoffPoint {
	if fractions == nil {
		fractions = attack.CurveFractions()
	}
	return attack.Curve(res.Evals, fractions)
}

// RecoveryReport quantifies how well an attacker's reconstructed netlist
// matches the reference, both structurally (correct pairings) and
// functionally (simulated logic values).
type RecoveryReport = sim.RecoveryReport

// EvaluateRecovery rewires the challenge's BEOL according to the
// attacker's pairing (driver-side v-pin ID -> guessed partner ID),
// simulates reference and reconstruction on shared random vectors, and
// reports structural and functional recovery rates.
func EvaluateRecovery(ch *Challenge, pairing map[int]int, vectors int, seed int64) (RecoveryReport, error) {
	return sim.EvaluateRecovery(ch, pairing, vectors, seed)
}

// TruthPairing returns the ground-truth v-pin pairing of a challenge; its
// recovery rates are 100% by construction (a useful self-check).
func TruthPairing(ch *Challenge) map[int]int { return sim.TruthPairing(ch) }
