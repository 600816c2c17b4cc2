// Industrial-tier perf baseline: one leave-one-out attack on the 100k+-cell
// sbx1 design, measured with the memory-bounded streaming configuration the
// tier is built for (absolute LoC cap + pinned spatial shard size). The
// measurement contributes a section to both baseline documents: the scoring
// side (digest, pair/region/retention counts, allocation rates, peak heap)
// to BENCH_scoring.json and the training side (samples, trees, artifact
// bytes) to BENCH_train.json.
//
// The shard size is pinned rather than automatic so the region count is a
// deterministic function of (scale, seed) and can be gated exactly across
// machines, alongside the evaluation digest — the strongest cross-machine
// bit-identity check the repository has.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/split"
)

const (
	// industrialConfigName is the measured attack configuration.
	industrialConfigName = "Imp-11"
	// industrialMaxLoC is the absolute per-v-pin retention cap. At ~30k
	// v-pins the default 0.15 fraction would retain gigabytes; 256 keeps
	// the evaluation tens of megabytes without touching FCR/LoC metrics
	// inside the retained bound.
	industrialMaxLoC = 256
	// industrialShard pins the spatial-region size so the region count is
	// machine-independent and exact-gateable.
	industrialShard = 2048
)

// industrialScoringEntry is the industrial section of BENCH_scoring.json.
type industrialScoringEntry struct {
	Tier        string  `json:"tier"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	SplitLayer  int     `json:"split_layer"`
	Design      string  `json:"design"`
	Cells       int     `json:"cells"`
	VPins       int     `json:"vpins"`
	Config      string  `json:"config"`
	MaxLoCCount int     `json:"max_loc_count"`
	ShardVpins  int     `json:"shard_vpins"`
	// Workers is the effective worker count the allocation rates were
	// measured at. Startup allocations (one arena and one retention heap
	// per worker) amortize over the same v-pin count, so the rates scale
	// with the worker count; `-check` reruns the measurement at this
	// recorded count so the ceilings compare like for like on any machine.
	Workers int `json:"workers"`
	// EvalDigest through Retained are deterministic functions of
	// (scale, seed) and are gated exactly: a mismatch on any machine means
	// the engine's results changed.
	EvalDigest string `json:"eval_digest"`
	Pairs      int64  `json:"pairs"`
	Batches    int64  `json:"batches"`
	BatchRows  int64  `json:"batch_rows"`
	Regions    int    `json:"regions"`
	Retained   int64  `json:"retained"`
	// MallocsPerVpin and AllocBytesPerPair are allocation rates of the
	// scoring stage (heap allocation count per target v-pin, allocated
	// bytes per scored pair); ceiling-gated.
	MallocsPerVpin    float64 `json:"mallocs_per_vpin"`
	AllocBytesPerPair float64 `json:"alloc_bytes_per_pair"`
	// PeakHeapBytes is the highest live-heap sample observed during
	// scoring — the tier's memory envelope; ceiling-gated.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Wall-clock trajectory, recorded but never gated.
	GenNs         int64   `json:"gen_ns"`
	ScoreNs       int64   `json:"score_ns"`
	PairsPerSec   float64 `json:"pairs_per_sec"`
	RadiusNorm    float64 `json:"radius_norm"`
	EstimatedLooS float64 `json:"estimated_loo_s"`
}

// industrialTrainEntry is the industrial section of BENCH_train.json.
type industrialTrainEntry struct {
	Tier        string  `json:"tier"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	SplitLayer  int     `json:"split_layer"`
	Design      string  `json:"design"`
	Config      string  `json:"config"`
	MaxLoCCount int     `json:"max_loc_count"`
	// Samples, Trees, and ArtifactBytes are exact-gated.
	Samples       int   `json:"samples"`
	Trees         int   `json:"trees"`
	ArtifactBytes int   `json:"artifact_bytes"`
	ColdTrainNs   int64 `json:"cold_train_ns"`
}

// industrialConfig is the measured configuration: Imp-11 with the absolute
// retention cap and pinned shard size.
func industrialConfig(seed int64, workers int) attack.Config {
	cfg := attack.Imp11()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.MaxLoCCount = industrialMaxLoC
	cfg.ShardVpins = industrialShard
	return cfg
}

// heapWatcher samples the live heap until stopped and reports the peak.
type heapWatcher struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{done: make(chan struct{})}
	// The ticker is made here, not on the goroutine, so its allocations
	// (the first timer of a process also registers a runtime metric, about
	// fifty objects) land before the caller's measured window opens.
	tick := time.NewTicker(100 * time.Millisecond)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.done:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak.Load() {
					w.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return w
}

// stop ends sampling and returns the peak live-heap estimate.
func (w *heapWatcher) stop() uint64 {
	close(w.done)
	w.wg.Wait()
	return w.peak.Load()
}

// measureIndustrial generates the industrial suite and runs the single
// leave-one-out measurement: a timed cold train (the train entry) followed
// by a timed artifact-scored attack under the heap watcher (the scoring
// entry). Training once and scoring from the artifact keeps the expensive
// 100k-cell train from running twice.
func measureIndustrial(o *obs.Context, workers int, scale float64, seed int64) (*industrialScoringEntry, *industrialTrainEntry, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t0 := time.Now()
	designs, err := layout.GenerateSuiteObs(o, layout.SuiteConfig{
		Tier: layout.TierIndustrial, Scale: scale, Seed: seed, Workers: workers})
	if err != nil {
		return nil, nil, fmt.Errorf("industrial bench: %w", err)
	}
	genNs := time.Since(t0).Nanoseconds()

	chs := make([]*split.Challenge, len(designs))
	for i, d := range designs {
		if chs[i], err = split.NewChallengeObs(o, d, benchSplitLayer); err != nil {
			return nil, nil, fmt.Errorf("industrial bench: %w", err)
		}
	}
	insts := attack.NewInstancesWorkers(chs, workers)
	cfg := industrialConfig(seed, workers)

	spec, _, err := attack.TrainSpec(cfg, insts, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("industrial bench: %w", err)
	}
	t0 = time.Now()
	art, _, err := model.Train(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("industrial bench: %w", err)
	}
	coldNs := time.Since(t0).Nanoseconds()
	blob, err := art.MarshalBinary()
	if err != nil {
		return nil, nil, fmt.Errorf("industrial bench: %w", err)
	}

	watcher := watchHeap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev, radiusNorm, err := attack.RunTargetArtifact(cfg, insts, 0, art)
	runtime.ReadMemStats(&after)
	peak := watcher.stop()
	if err != nil {
		return nil, nil, fmt.Errorf("industrial bench: %w", err)
	}

	target := designs[0]
	scoring := &industrialScoringEntry{
		Tier:       layout.TierIndustrial,
		Scale:      scale,
		Seed:       seed,
		SplitLayer: benchSplitLayer,
		Design:     target.Name,
		Cells:      len(target.Netlist.Cells),
		VPins:      ev.N,
		Config:     cfg.Name, MaxLoCCount: cfg.MaxLoCCount, ShardVpins: cfg.ShardVpins,
		Workers:    workers,
		EvalDigest: ev.Digest(),
		Pairs:      ev.PairsScored, Batches: ev.Batches, BatchRows: ev.BatchRows,
		Regions: ev.Regions, Retained: ev.Retained,
		MallocsPerVpin:    float64(after.Mallocs-before.Mallocs) / float64(ev.N),
		AllocBytesPerPair: float64(after.TotalAlloc-before.TotalAlloc) / float64(ev.PairsScored),
		PeakHeapBytes:     peak,
		GenNs:             genNs,
		ScoreNs:           ev.TestDur.Nanoseconds(),
		PairsPerSec:       float64(ev.PairsScored) / ev.TestDur.Seconds(),
		RadiusNorm:        radiusNorm,
		EstimatedLooS:     estimateLooSeconds(insts, coldNs, ev),
	}
	train := &industrialTrainEntry{
		Tier:       layout.TierIndustrial,
		Scale:      scale,
		Seed:       seed,
		SplitLayer: benchSplitLayer,
		Design:     target.Name,
		Config:     cfg.Name, MaxLoCCount: cfg.MaxLoCCount,
		Samples: art.Meta.Samples, Trees: art.Meta.Trees,
		ArtifactBytes: len(blob),
		ColdTrainNs:   coldNs,
	}
	return scoring, train, nil
}

// estimateLooSeconds extrapolates the measured single-fold train+score time
// to the full leave-one-out sweep, scaling the scoring side by each fold's
// target v-pin count (scoring work is near-linear in it at a fixed radius).
func estimateLooSeconds(insts []*attack.Instance, coldNs int64, ev *attack.Evaluation) float64 {
	perVpinNs := float64(ev.TestDur.Nanoseconds()) / float64(ev.N)
	total := 0.0
	for _, inst := range insts {
		total += float64(coldNs) + perVpinNs*float64(len(inst.Ch.VPins))
	}
	return total / 1e9
}
