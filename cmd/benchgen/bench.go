package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/split"
)

// benchSplitLayer is the split layer both perf baselines are measured at.
const benchSplitLayer = 6

// scoringDoc is the BENCH_scoring.json baseline document.
type scoringDoc struct {
	Scale        float64             `json:"scale"`
	Seed         int64               `json:"seed"`
	SplitLayer   int                 `json:"split_layer"`
	InstancePrep instancePrepDoc     `json:"instance_prep"`
	Configs      []scoringBenchEntry `json:"configs"`
	// Industrial is the 100k+-cell tier's streamed-scoring measurement
	// (see industrial.go); absent in baselines written before the tier
	// existed.
	Industrial *industrialScoringEntry `json:"industrial,omitempty"`
}

// instancePrepDoc measures the fixed per-run instance-preparation cost
// (feature extractors + spatial pair indexes), serial vs parallel.
type instancePrepDoc struct {
	Designs    int     `json:"designs"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// scoringBenchEntry is one config's scalar-vs-batch scoring measurement in
// the BENCH_scoring.json baseline.
type scoringBenchEntry struct {
	Config string `json:"config"`
	// Pairs is the number of candidate pairs scored for the measured target.
	Pairs int64 `json:"pairs"`
	// ScalarPairsPerSec and BatchPairsPerSec are the scoring-phase
	// throughputs (Evaluation.TestDur over PairsScored) of the per-pair
	// oracle and the batched arena path.
	ScalarPairsPerSec float64 `json:"scalar_pairs_per_sec"`
	BatchPairsPerSec  float64 `json:"batch_pairs_per_sec"`
	Speedup           float64 `json:"speedup"`
	// Batches and BatchRows are the batch path's ProbBatch call and row
	// counts (level 1 + level 2).
	Batches   int64 `json:"batches"`
	BatchRows int64 `json:"batch_rows"`
	// MallocsPerPair is the heap-allocation count of the whole target run
	// (training included) divided by the pairs scored, per path — a coarse
	// trajectory metric; the steady-state scoring loop itself allocates
	// nothing on the batch path (guarded by testing.AllocsPerRun in
	// internal/attack).
	ScalarMallocsPerPair float64 `json:"scalar_mallocs_per_pair"`
	BatchMallocsPerPair  float64 `json:"batch_mallocs_per_pair"`
}

// trainDoc is the BENCH_train.json baseline document.
type trainDoc struct {
	Scale      float64           `json:"scale"`
	Seed       int64             `json:"seed"`
	SplitLayer int               `json:"split_layer"`
	Fold       int               `json:"fold"`
	Configs    []trainBenchEntry `json:"configs"`
	// Industrial is the 100k+-cell tier's training measurement (see
	// industrial.go); absent in baselines written before the tier existed.
	Industrial *industrialTrainEntry `json:"industrial,omitempty"`
}

// trainBenchEntry is one config's cold-train vs warm-load measurement in
// the BENCH_train.json baseline.
type trainBenchEntry struct {
	Config string `json:"config"`
	// ColdTrainNs is a full in-process model.Train for fold 0: sampling,
	// level-1 ensemble training, and (for two-level configs) the pruning
	// stage.
	ColdTrainNs int64 `json:"cold_train_ns"`
	// EncodeNs and ArtifactBytes measure MarshalBinary on the trained
	// artifact; WarmLoadNs measures UnmarshalArtifact on the same blob —
	// the cost an `attack -model` run pays instead of ColdTrainNs.
	EncodeNs      int64 `json:"encode_ns"`
	ArtifactBytes int   `json:"artifact_bytes"`
	WarmLoadNs    int64 `json:"warm_load_ns"`
	// StoreMissNs and StoreHitNs are Store.GetOrTrain timings for the same
	// spec: the first call trains, the second is served from the LRU.
	StoreMissNs int64 `json:"store_miss_ns"`
	StoreHitNs  int64 `json:"store_hit_ns"`
	// Speedup is ColdTrainNs over WarmLoadNs: how much faster a sweep
	// resumes when the fold's artifact is already on disk.
	Speedup float64 `json:"speedup"`
	Samples int     `json:"samples"`
	Trees   int     `json:"trees"`
}

// benchChallenges cuts every design at the baseline split layer.
func benchChallenges(designs []*layout.Design) ([]*split.Challenge, error) {
	chs := make([]*split.Challenge, 0, len(designs))
	for _, d := range designs {
		c, err := split.NewChallenge(d, benchSplitLayer)
		if err != nil {
			return nil, err
		}
		chs = append(chs, c)
	}
	return chs, nil
}

// measureScoring trains and scores one leave-one-out target per standard
// configuration at the baseline split layer, once through the scalar oracle
// and once through the batched arena path.
func measureScoring(designs []*layout.Design, scale float64, seed int64) (*scoringDoc, error) {
	chs, err := benchChallenges(designs)
	if err != nil {
		return nil, err
	}
	// Instance preparation (feature extractors + spatial pair indexes) is
	// the fixed cost every attack run pays before scoring; measure the
	// serial build against the parallel one so cache and fan-out wins show
	// up in the perf trajectory.
	t0 := time.Now()
	attack.NewInstancesWorkers(chs, 1)
	serialNs := time.Since(t0).Nanoseconds()
	t0 = time.Now()
	attack.NewInstancesWorkers(chs, 0)
	parallelNs := time.Since(t0).Nanoseconds()

	twoLevel := attack.WithTwoLevel(attack.Imp11())
	twoLevel.Name += "-2L"
	configs := []attack.Config{attack.ML9(), attack.Imp11(), twoLevel}
	entries := make([]scoringBenchEntry, 0, len(configs))
	for _, cfg := range configs {
		cfg.Seed = seed
		entry := scoringBenchEntry{Config: cfg.Name}
		for _, scalar := range []bool{true, false} {
			c := cfg
			c.ScalarScoring = scalar
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ev, _, err := attack.RunFoldInstances(c, attack.NewInstancesWorkers(chs, c.Workers), 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("scoring bench %s: %w", c.Name, err)
			}
			pps := float64(ev.PairsScored) / ev.TestDur.Seconds()
			mallocs := float64(after.Mallocs-before.Mallocs) / float64(ev.PairsScored)
			if scalar {
				entry.Pairs = ev.PairsScored
				entry.ScalarPairsPerSec = pps
				entry.ScalarMallocsPerPair = mallocs
			} else {
				entry.BatchPairsPerSec = pps
				entry.BatchMallocsPerPair = mallocs
				entry.Batches = ev.Batches
				entry.BatchRows = ev.BatchRows
			}
		}
		entry.Speedup = entry.BatchPairsPerSec / entry.ScalarPairsPerSec
		entries = append(entries, entry)
	}
	return &scoringDoc{
		Scale: scale, Seed: seed, SplitLayer: benchSplitLayer,
		InstancePrep: instancePrepDoc{
			Designs:    len(chs),
			SerialNs:   serialNs,
			ParallelNs: parallelNs,
			Speedup:    float64(serialNs) / float64(parallelNs),
		},
		Configs: entries,
	}, nil
}

// measureTrain measures the train-once/score-many trade for fold 0 at the
// baseline split layer: a cold in-process train, the artifact codec
// round-trip, and a Store miss/hit pair, per standard configuration.
func measureTrain(designs []*layout.Design, scale float64, seed int64) (*trainDoc, error) {
	chs, err := benchChallenges(designs)
	if err != nil {
		return nil, err
	}
	insts := attack.NewInstancesWorkers(chs, 0)

	twoLevel := attack.WithTwoLevel(attack.Imp11())
	twoLevel.Name += "-2L"
	configs := []attack.Config{attack.Imp11(), twoLevel}
	entries := make([]trainBenchEntry, 0, len(configs))
	for _, cfg := range configs {
		cfg.Seed = seed
		spec, _, err := attack.TrainSpec(cfg, insts, 0)
		if err != nil {
			return nil, fmt.Errorf("train bench %s: %w", cfg.Name, err)
		}

		t0 := time.Now()
		art, _, err := model.Train(spec)
		if err != nil {
			return nil, fmt.Errorf("train bench %s: %w", cfg.Name, err)
		}
		coldNs := time.Since(t0).Nanoseconds()

		t0 = time.Now()
		blob, err := art.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("train bench %s: %w", cfg.Name, err)
		}
		encodeNs := time.Since(t0).Nanoseconds()
		t0 = time.Now()
		if _, err := model.UnmarshalArtifact(blob); err != nil {
			return nil, fmt.Errorf("train bench %s: %w", cfg.Name, err)
		}
		warmNs := time.Since(t0).Nanoseconds()

		store := model.NewStore(0, "")
		t0 = time.Now()
		if _, _, err := store.GetOrTrain(spec); err != nil {
			return nil, fmt.Errorf("train bench %s: %w", cfg.Name, err)
		}
		missNs := time.Since(t0).Nanoseconds()
		t0 = time.Now()
		if _, _, err := store.GetOrTrain(spec); err != nil {
			return nil, fmt.Errorf("train bench %s: %w", cfg.Name, err)
		}
		hitNs := time.Since(t0).Nanoseconds()

		entries = append(entries, trainBenchEntry{
			Config:        cfg.Name,
			ColdTrainNs:   coldNs,
			EncodeNs:      encodeNs,
			ArtifactBytes: len(blob),
			WarmLoadNs:    warmNs,
			StoreMissNs:   missNs,
			StoreHitNs:    hitNs,
			Speedup:       float64(coldNs) / float64(warmNs),
			Samples:       art.Meta.Samples,
			Trees:         art.Meta.Trees,
		})
	}
	return &trainDoc{
		Scale: scale, Seed: seed, SplitLayer: benchSplitLayer, Fold: 0,
		Configs: entries,
	}, nil
}

// writeBaseline marshals a baseline document to path.
func writeBaseline(path string, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
