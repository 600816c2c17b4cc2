package serve

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/sweep"
)

// Result is the document served by GET /jobs/{id}/result: the normalized
// spec that produced it plus exactly one kind-specific section. It is what
// gets persisted as results/<id>.json.
type Result struct {
	ID        string  `json:"id"`
	Kind      JobKind `json:"kind"`
	Spec      JobSpec `json:"spec"`
	ElapsedNS int64   `json:"elapsed_ns"`

	Train  *TrainResult  `json:"train,omitempty"`
	Attack *AttackResult `json:"attack,omitempty"`
	Sweep  *SweepResult  `json:"sweep,omitempty"`
}

// TrainResult describes the trained artifact of a train job.
type TrainResult struct {
	SpecHash string `json:"spec_hash"`
	// Artifact is the persisted artifact's path under the server's state
	// dir; empty on a memory-only server.
	Artifact      string `json:"artifact,omitempty"`
	Level         int    `json:"level"`
	Trees         int    `json:"trees"`
	Samples       int    `json:"samples"`
	Level2Trees   int    `json:"level2_trees,omitempty"`
	Level2Samples int    `json:"level2_samples,omitempty"`
	// Cached reports whether the shared store served the artifact without
	// training (a prior job or a coalesced concurrent one trained it).
	Cached  bool  `json:"cached"`
	TrainNS int64 `json:"train_ns"`
}

// AttackResult is the outcome of an attack or proximity job against one
// held-out design.
type AttackResult struct {
	Design string `json:"design"`
	Layer  int    `json:"layer"`
	Config string `json:"config"`
	VPins  int    `json:"vpins"`
	// RadiusNorm is the Imp neighborhood radius as a fraction of die width
	// (-1 without the improvement).
	RadiusNorm  float64 `json:"radius_norm"`
	TrainNS     int64   `json:"train_ns"`
	TestNS      int64   `json:"test_ns"`
	PairsScored int64   `json:"pairs_scored"`
	MaxAccuracy float64 `json:"max_accuracy"`
	// AccuracyAtK maps |LoC| sizes ("1", "2", "5", ...) to attack accuracy.
	AccuracyAtK map[string]float64 `json:"accuracy_at_k"`
	// EvalDigest is the canonical content hash of the full evaluation
	// (attack.Evaluation.Digest): equal digests mean bit-identical scored
	// candidate lists — the served result matches an in-process
	// attack.RunTargetInstances of the same spec exactly.
	EvalDigest string `json:"eval_digest"`
	// Evaluation carries the full scored candidate lists.
	Evaluation *Eval            `json:"evaluation,omitempty"`
	Proximity  *ProximityResult `json:"proximity,omitempty"`
}

// Eval is the wire form of an attack.Evaluation's data: ground truth,
// scored true-match probabilities (-1 = never scored), and the retained
// candidate list of every v-pin, sorted by descending probability.
type Eval struct {
	N      int       `json:"n"`
	Truth  []int32   `json:"truth"`
	TruthP []float32 `json:"truth_p"`
	Cands  [][]Cand  `json:"candidates"`
}

// Cand is one scored candidate: partner v-pin, probability, and
// ManhattanVpin distance.
type Cand struct {
	Other int32   `json:"other"`
	P     float32 `json:"p"`
	D     float32 `json:"d"`
}

// ProximityResult reports the validation-based proximity attack.
type ProximityResult struct {
	Success      float64 `json:"success"`
	FixedSuccess float64 `json:"fixed_success"`
	BestFrac     float64 `json:"best_frac"`
	ValidationNS int64   `json:"validation_ns"`
}

// SweepResult aggregates a full leave-one-out sweep per configuration. A
// sharded sweep job (spec shard/of set) reports only its unit statistics:
// its folds live in the server's checkpoint, and a later full sweep job
// merges them into Configs.
type SweepResult struct {
	Layer int `json:"layer"`
	// Shard and Of echo a sharded job's partition (0/0 for a full sweep).
	Shard int `json:"shard,omitempty"`
	Of    int `json:"of,omitempty"`
	// Units summarises a sharded job's work; nil for a full sweep.
	Units   *UnitStats          `json:"units,omitempty"`
	Configs []SweepConfigResult `json:"configs,omitempty"`
}

// UnitStats counts a sharded sweep job's work units (see sweep.Stats).
type UnitStats = sweep.Stats

// SweepConfigResult is one configuration's leave-one-out outcome: a
// per-design summary plus the aggregate LoC/accuracy trade-off curve.
type SweepConfigResult struct {
	Config      string          `json:"config"`
	Designs     []DesignSummary `json:"designs"`
	Curve       []CurvePoint    `json:"curve"`
	MeanTrainNS int64           `json:"mean_train_ns"`
	MeanTestNS  int64           `json:"mean_test_ns"`
}

// DesignSummary is the per-design slice of a sweep (no full candidate
// lists; submit an attack job for one design to fetch those).
type DesignSummary struct {
	Design      string  `json:"design"`
	VPins       int     `json:"vpins"`
	MaxAccuracy float64 `json:"max_accuracy"`
	EvalDigest  string  `json:"eval_digest"`
}

// CurvePoint is one aggregate trade-off sample: mean accuracy across
// designs with each design's threshold tuned to the LoC fraction.
type CurvePoint struct {
	LoCFrac  float64 `json:"loc_frac"`
	Accuracy float64 `json:"accuracy"`
}

// accuracyKs are the |LoC| sizes reported in AccuracyAtK, matching the
// splitattack command's table.
var accuracyKs = []int{1, 2, 5, 10, 20, 50, 100}

// attackResult flattens an evaluation into its wire form.
func attackResult(cfg attack.Config, layer int, ev *attack.Evaluation, radiusNorm float64) *AttackResult {
	res := &AttackResult{
		Design:      ev.Design,
		Layer:       layer,
		Config:      cfg.Name,
		VPins:       ev.N,
		RadiusNorm:  radiusNorm,
		TrainNS:     int64(ev.TrainDur),
		TestNS:      int64(ev.TestDur),
		PairsScored: ev.PairsScored,
		MaxAccuracy: ev.MaxAccuracy(),
		AccuracyAtK: map[string]float64{},
		EvalDigest:  ev.Digest(),
		Evaluation:  evalWire(ev),
	}
	for _, k := range accuracyKs {
		if k > ev.N {
			break
		}
		res.AccuracyAtK[fmt.Sprintf("%d", k)] = ev.AccuracyAtK(k)
	}
	return res
}

// evalWire copies the evaluation's data sections into the wire form.
func evalWire(ev *attack.Evaluation) *Eval {
	out := &Eval{
		N:      ev.N,
		Truth:  ev.Truth,
		TruthP: ev.TruthP,
		Cands:  make([][]Cand, len(ev.Cands)),
	}
	for a, cands := range ev.Cands {
		row := make([]Cand, len(cands))
		for i, c := range cands {
			row[i] = Cand{Other: c.Other, P: c.P, D: c.D}
		}
		out.Cands[a] = row
	}
	return out
}
