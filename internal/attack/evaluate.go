package attack

import (
	"time"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/pairs"
)

// Candidate is one scored entry of a v-pin's candidate list; it is the
// pairs package's Candidate — the candidate-list machinery (ordering,
// bounded retention, LoC cap) lives there so the attack engine and the
// model package's two-level stage share one implementation.
type Candidate = pairs.Candidate

// Evaluation holds the scored candidate lists of one (config, design,
// split-layer) attack run. All LoC/accuracy metrics and the proximity
// attack are computed from it without re-running inference, which is how
// the paper varies the threshold "without re-running the entire
// classification process" (§III-F).
type Evaluation struct {
	ConfigName string
	Design     string
	SplitLayer int
	// N is the number of v-pins in the target design.
	N int
	// Cands[a] lists the retained candidates of v-pin a, sorted by
	// descending P. Lists are truncated to MaxLoCFrac*N entries (further
	// capped by MaxLoCCount when the configuration sets it); metrics are
	// exact for LoC sizes up to that bound.
	Cands [][]Candidate
	// TruthP[a] is the scored probability of a's true match, or -1 when
	// the pair was never scored (filtered out by neighborhood or Y rules
	// — the saturation effect of Fig. 9).
	TruthP []float32
	// Truth[a] is the ground-truth partner of a.
	Truth []int32
	// Subset, when non-nil, lists the only v-pins that were scored;
	// metrics over the whole design are then undefined and only
	// subset-aware consumers (the PA validation) should use the result.
	Subset []int
	// TrainDur and TestDur are the wall-clock durations of model training
	// and candidate scoring.
	TrainDur, TestDur time.Duration
	// Phases breaks the run into its pipeline stages; the training phases
	// sum to TrainDur and Scoring equals TestDur (up to clock granularity).
	Phases Phases
	// PairsScored counts the directed admitted candidate pairs of the
	// scored v-pins: a pair of two scored v-pins counts once per list,
	// though the model scores it once (pairs.StreamStats.Pairs).
	PairsScored int64
	// Batches and BatchRows count the ProbBatch calls of the batched
	// scoring path and the rows scored through them (level-1 and level-2
	// batches both counted): the kernel work actually done, so a
	// full-design fold scores PairsScored/2 level-1 rows. Zero on the
	// scalar path.
	Batches, BatchRows int64
	// Regions is the number of spatial shards the scoring stage streamed
	// the targets through, and Retained the total candidates kept across
	// all lists. Execution-shape statistics: not part of Digest.
	Regions int
	// Retained counts the candidates kept across all lists after the
	// retention bound — the Evaluation's dominant memory term (12 bytes
	// per retained candidate).
	Retained int64
}

// Phases is the per-stage wall-clock breakdown of one target's attack run.
type Phases struct {
	// Sampling is training-set generation (§III-B sampling plus the Imp
	// neighborhood radius computation consumers fold into TrainDur).
	Sampling time.Duration `json:"sampling_ns"`
	// Level1 is the level-1 ensemble training.
	Level1 time.Duration `json:"level1_ns"`
	// Level2 is the two-level-pruning model training (0 without TwoLevel).
	Level2 time.Duration `json:"level2_ns"`
	// Scoring is candidate scoring of the held-out design (== TestDur).
	Scoring time.Duration `json:"scoring_ns"`
	// Count, Gather, Kernel, Retain and Sort are the scoring engine's own
	// ledger (pairs.Ledger): its time per phase, summed over the scoring
	// workers, so with several workers they add up to more than Scoring.
	Count  time.Duration `json:"count_ns"`
	Gather time.Duration `json:"gather_ns"`
	Kernel time.Duration `json:"kernel_ns"`
	Retain time.Duration `json:"retain_ns"`
	Sort   time.Duration `json:"sort_ns"`
}

// annotate records the scoring engine's ledger on its scoring span.
func (p Phases) annotate(sp *obs.Span) {
	sp.SetAttr("count_ns", int64(p.Count))
	sp.SetAttr("gather_ns", int64(p.Gather))
	sp.SetAttr("kernel_ns", int64(p.Kernel))
	sp.SetAttr("retain_ns", int64(p.Retain))
	sp.SetAttr("sort_ns", int64(p.Sort))
}

// scoreSubset evaluates the admitted candidate pairs of the listed target
// v-pins with the model and assembles the Evaluation (candidates are still
// drawn from the whole design). A nil subset scores every v-pin; the
// proximity attack's validation stage scores only held-out v-pins.
//
// Scoring rides pairs.ScoreLists, the shared region-streamed engine: the
// targets are sharded by spatial region of the v-pin index, each admitted
// pair of two targets is scored once and retained into both lists, and the
// model's batched backend (pairs.ResolveBackend), wrapped in the list-wise
// ranking head when cfg.Ranking, scores each gathered arena. Retention is
// order-free, so the Evaluation is bit-identical at any worker count and
// any shard size.
// TruthP comes from ScoreLists, which takes it when the true pair is
// scored, so it survives even when the truth falls outside the retained
// bound.
func scoreSubset(model Scorer, inst *Instance, cfg Config, radiusNorm float64, subset []int) *Evaluation {
	start := time.Now()
	n := inst.N()
	filter := cfg.Filter(inst, radiusNorm)

	ev := &Evaluation{
		ConfigName: cfg.Name,
		Design:     inst.Ch.Design.Name,
		SplitLayer: inst.Ch.SplitLayer,
		N:          n,
		Subset:     subset,
		Truth:      make([]int32, n),
	}
	for a := 0; a < n; a++ {
		ev.Truth[a] = int32(inst.Match(a))
	}

	backend := pairs.ResolveBackend(model, false)
	if cfg.Ranking {
		backend = pairs.Ranked(backend)
	}
	lists, stats := pairs.ScoreLists(filter, backend, pairs.StreamOptions{
		Targets:    subset,
		Cap:        cfg.RetainCap(n),
		ShardVpins: cfg.ShardVpins,
		Workers:    cfg.Workers,
		Stride:     features.Width(cfg.Features),
	})
	ev.Cands = lists
	ev.TruthP = stats.TruthP
	ev.PairsScored = stats.Pairs
	ev.Batches = stats.Batches
	ev.BatchRows = stats.BatchRows
	ev.Regions = stats.Regions
	ev.Retained = stats.Retained
	ev.TestDur = time.Since(start)
	led := stats.Ledger
	ev.Phases = Phases{Scoring: ev.TestDur, Count: led.Count, Gather: led.Gather,
		Kernel: led.Kernel, Retain: led.Retain, Sort: led.Sort}
	return ev
}
