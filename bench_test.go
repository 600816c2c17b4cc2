package repro

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design choices
// called out in DESIGN.md §5.
//
// Each benchmark regenerates its table/figure end-to-end (attack runs
// included) on a reduced-scale suite so `go test -bench=.` finishes in
// minutes; `cmd/experiments -scale 1.0` produces the full-scale numbers
// recorded in EXPERIMENTS.md. Designs are generated once and shared;
// attack-result caches are fresh per iteration so the measured work is the
// real computation, not a cache hit.

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/pairs"
	"repro/internal/split"
	"repro/internal/sweep"
)

// benchScale keeps the full bench sweep in the minutes range.
const benchScale = 0.25

var (
	benchOnce    sync.Once
	benchErr     error
	benchDesigns []*layout.Design
)

// benchSuite returns a fresh experiment Suite (empty caches) over the
// shared bench designs.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchDesigns, benchErr = layout.GenerateSuite(layout.SuiteConfig{Scale: benchScale, Seed: 1})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return experiments.NewSuite(sweep.SuiteOf(sweep.Provenance{Scale: benchScale, Seed: 1}, benchDesigns))
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if err := exp.Run(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }

// benchChallenges cuts the shared designs at a layer, once per call.
func benchChallenges(b *testing.B, layer int) []*split.Challenge {
	b.Helper()
	benchSuite(b) // ensure designs exist
	chs := make([]*split.Challenge, 0, len(benchDesigns))
	for _, d := range benchDesigns {
		c, err := split.NewChallenge(d, layer)
		if err != nil {
			b.Fatal(err)
		}
		chs = append(chs, c)
	}
	return chs
}

// runQuality runs cfg at the layer and reports aggregate accuracy@k=10 as
// a custom metric alongside the runtime.
func runQuality(b *testing.B, cfg attack.Config, layer int) {
	b.Helper()
	chs := benchChallenges(b, layer)
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := attack.RunInstances(cfg, attack.NewInstancesWorkers(chs, 0))
		if err != nil {
			b.Fatal(err)
		}
		acc = 0
		for _, ev := range res.Evals {
			acc += ev.AccuracyAtK(10)
		}
		acc /= float64(len(res.Evals))
	}
	b.ReportMetric(acc, "acc@10")
}

// benchWorkers measures the full leave-one-out run at a fixed worker
// count. The attack result is identical at every count (the determinism
// tests pin this); only the wall time changes, so comparing these
// benchmarks is the serial-vs-parallel speedup measurement.
func benchWorkers(b *testing.B, workers int) {
	b.Helper()
	chs := benchChallenges(b, 6)
	cfg := attack.Imp11()
	cfg.Name = "Imp-11-workers"
	cfg.Seed = 1
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		if _, err := attack.RunInstances(cfg, attack.NewInstancesWorkers(chs, workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkRunWorkers2(b *testing.B) { benchWorkers(b, 2) }
func BenchmarkRunWorkers4(b *testing.B) { benchWorkers(b, 4) }
func BenchmarkRunWorkersMax(b *testing.B) {
	benchWorkers(b, 0) // GOMAXPROCS
}

// Ablation: the neighborhood CDF cut trades the saturation ceiling against
// runtime (§III-D discusses the 90% choice).
func BenchmarkAblationNeighborhood80(b *testing.B) {
	cfg := attack.Imp9()
	cfg.Name = "Imp-9-q80"
	cfg.NeighborQuantile = 0.80
	runQuality(b, cfg, 6)
}

func BenchmarkAblationNeighborhood90(b *testing.B) {
	runQuality(b, attack.Imp9(), 6)
}

func BenchmarkAblationNeighborhood95(b *testing.B) {
	cfg := attack.Imp9()
	cfg.Name = "Imp-9-q95"
	cfg.NeighborQuantile = 0.95
	runQuality(b, cfg, 6)
}

// Ablation: ensemble size (Weka default is 10 REPTrees).
func BenchmarkAblationTrees5(b *testing.B) {
	cfg := attack.Imp9()
	cfg.Name = "Imp-9-t5"
	cfg.NumTrees = 5
	runQuality(b, cfg, 6)
}

func BenchmarkAblationTrees25(b *testing.B) {
	cfg := attack.Imp9()
	cfg.Name = "Imp-9-t25"
	cfg.NumTrees = 25
	runQuality(b, cfg, 6)
}

// Ablation: pruned REPTree vs unpruned RandomTree base classifiers at
// equal ensemble size — isolates the effect of reduced-error pruning from
// the ensemble-size effect in Table II.
func BenchmarkAblationPruningOn(b *testing.B) {
	runQuality(b, attack.Imp7(), 6)
}

func BenchmarkAblationPruningOff(b *testing.B) {
	cfg := attack.WithBase(attack.Imp7(), ml.RandomTree, ml.DefaultBaggingSize)
	cfg.Name = "Imp-7-unpruned10"
	runQuality(b, cfg, 6)
}

// Ablation: balanced vs unbalanced negative sampling. The paper argues
// balanced sampling is essential [4]; the unbalanced variant draws four
// negatives per positive.
func BenchmarkAblationBalanced(b *testing.B) {
	runQuality(b, attack.Imp11(), 6)
}

func BenchmarkAblationUnbalanced(b *testing.B) {
	chs := benchChallenges(b, 6)
	cfg := attack.Imp11()
	cfg.Name = "Imp-11-unbalanced"
	opts := cfg.TrainOptions.WithDefaults()
	var acc float64
	for i := 0; i < b.N; i++ {
		insts := attack.NewInstancesWorkers(chs, 0)
		acc = 0
		for target, inst := range insts {
			var train []*attack.Instance
			for j, other := range insts {
				if j != target {
					train = append(train, other)
				}
			}
			rng := rand.New(rand.NewSource(int64(target)))
			radius := attack.NeighborRadiusNorm(train, opts.NeighborQuantile)
			ds := attack.TrainingSet(cfg, train, radius, nil, rng)
			// Oversample negatives 4:1 by re-adding three more negative
			// draws per positive.
			extra := attack.TrainingSet(cfg, train, radius, nil, rng)
			for k := range extra.X {
				if !extra.Y[k] {
					ds.Add(extra.X[k], false)
				}
			}
			sc, err := model.TrainContext{
				Opts: opts, Seed: cfg.Seed, Unit: model.UnitLevel1, Fold: target,
			}.Train(ds)
			if err != nil {
				b.Fatal(err)
			}
			lists, _ := pairs.ScoreLists(opts.Filter(inst, radius), pairs.ResolveBackend(sc, false),
				pairs.StreamOptions{Cap: opts.RetainCap(inst.N()), Stride: features.Width(opts.Features)})
			acc += accuracyAtK(inst, lists, 10)
		}
		acc /= float64(len(insts))
	}
	b.ReportMetric(acc, "acc@10")
}

// accuracyAtK is the fraction of the instance's v-pins whose true partner
// ranks among the first k entries of its candidate list.
func accuracyAtK(inst *attack.Instance, lists [][]pairs.Candidate, k int) float64 {
	hits := 0
	for a, cands := range lists {
		for _, c := range cands[:min(k, len(cands))] {
			if int(c.Other) == inst.Match(a) {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(inst.N())
}
