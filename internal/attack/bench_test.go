package attack

// Benchmarks for the candidate pair-scoring hot path: the row-by-row
// oracle (the compiled model behind probOnly, scored through per-pair
// Scorer.Prob calls) against the batched flat-arena path (gather into
// per-worker buffers, one ml.Ensemble.ProbBatch call per v-pin and model
// level). Both produce bit-identical Evaluations — batch_test.go proves
// it — so these benchmarks compare pure throughput.
//
// The pairs/s metric is the one to read: ns/op varies with the fixture's
// candidate counts, pairs/s does not.

import (
	"testing"

	"repro/internal/model"
)

// benchAttackModel trains cfg's model for target 0 of the fixture at the
// layer, exactly as runTarget would: same derived streams, same optional
// level-2 stage, same compiled arenas.
func benchAttackModel(b *testing.B, cfg Config, layer int) (Scorer, *Instance, float64) {
	b.Helper()
	insts := NewInstancesWorkers(challenges(b, layer), 0)
	spec, radius := cfg.foldSpec(insts, 0, nil)
	art, _, err := model.Train(spec)
	if err != nil {
		b.Fatal(err)
	}
	return art.Scorer(), insts[0], radius
}

func benchScoreTarget(b *testing.B, cfg Config, scalar bool) {
	cfg = cfg.withDefaults()
	cfg.Seed = 1
	cfg.Workers = 1
	model, inst, radius := benchAttackModel(b, cfg, 6)
	if scalar {
		model = probOnly{model}
	}
	b.ResetTimer()
	var scored int64
	for i := 0; i < b.N; i++ {
		ev := scoreSubset(model, inst, cfg, radius, nil)
		scored = ev.PairsScored
	}
	b.ReportMetric(float64(scored)*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkScoreTargetML9Scalar(b *testing.B)   { benchScoreTarget(b, ML9(), true) }
func BenchmarkScoreTargetML9Batch(b *testing.B)    { benchScoreTarget(b, ML9(), false) }
func BenchmarkScoreTargetImp11Scalar(b *testing.B) { benchScoreTarget(b, Imp11(), true) }
func BenchmarkScoreTargetImp11Batch(b *testing.B)  { benchScoreTarget(b, Imp11(), false) }
func BenchmarkScoreTargetTwoLevelScalar(b *testing.B) {
	benchScoreTarget(b, WithTwoLevel(Imp11()), true)
}
func BenchmarkScoreTargetTwoLevelBatch(b *testing.B) {
	benchScoreTarget(b, WithTwoLevel(Imp11()), false)
}

// BenchmarkTrainFold times model.Train for fold 0 of the layer-6 fixture,
// Imp-11 on one worker: the sampling and Bagging-of-REPTrees induction a
// leave-one-out fold runs, on real layout samples rather than the
// synthetic set of ml's attack-shaped benchmarks. It reports the fold's
// training samples and the trained ensemble's nodes, which a change to
// induction must leave as they are.
func BenchmarkTrainFold(b *testing.B) {
	cfg := Imp11().withDefaults()
	cfg.Seed = 1
	cfg.Workers = 1
	insts := NewInstancesWorkers(challenges(b, 6), 0)
	spec, _ := cfg.foldSpec(insts, 0, nil)
	b.ResetTimer()
	var samples, nodes int
	for i := 0; i < b.N; i++ {
		art, stats, err := model.Train(spec)
		if err != nil {
			b.Fatal(err)
		}
		e, _, _ := art.Ensembles()
		samples, nodes = stats.Samples, e.Nodes()
	}
	b.ReportMetric(float64(samples), "samples")
	b.ReportMetric(float64(nodes), "nodes")
}
