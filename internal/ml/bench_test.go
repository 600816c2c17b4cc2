package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
)

// Inference benchmarks: pair scoring dominates attack runtime, so the
// per-vector cost of the ensemble matters.

func benchModel(b *testing.B, kind TreeKind, trees int) (*Bagging, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := noisyData(5000, 0.15, rng)
	m, err := TrainBagging(ds, trees, TreeOptions{Kind: kind}, rng)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([][]float64, 1024)
	for i := range probes {
		probes[i] = []float64{rng.NormFloat64(), rng.Float64()}
	}
	return m, probes
}

func BenchmarkBaggingProbREPTree(b *testing.B) {
	m, probes := benchModel(b, REPTree, DefaultBaggingSize)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Prob(probes[i%len(probes)])
	}
	_ = sink
}

func BenchmarkBaggingProbRandomForest(b *testing.B) {
	m, probes := benchModel(b, RandomTree, DefaultForestSize)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Prob(probes[i%len(probes)])
	}
	_ = sink
}

// BenchmarkEnsembleProbScalar walks the compiled arena one vector at a
// time — the fallback path when batching is disabled.
func BenchmarkEnsembleProbScalar(b *testing.B) {
	m, probes := benchModel(b, REPTree, DefaultBaggingSize)
	e := m.Compile()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.Prob(probes[i%len(probes)])
	}
	_ = sink
}

// BenchmarkEnsembleProbBatch is the attack's hot path: the same vectors
// scored through one ProbBatch call over a row-major matrix. Compare
// against BenchmarkBaggingProbREPTree (the pre-arena scalar path) and
// BenchmarkEnsembleProbScalar for the per-layer speedups.
func BenchmarkEnsembleProbBatch(b *testing.B) {
	m, probes := benchModel(b, REPTree, DefaultBaggingSize)
	e := m.Compile()
	const stride = 2
	rows := make([]float64, len(probes)*stride)
	for i, p := range probes {
		copy(rows[i*stride:], p)
	}
	out := make([]float64, len(probes))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(probes) {
		e.ProbBatch(rows, stride, out)
	}
}

// attackishData mimics the attack's pair training sets: 11 features, a few
// informative dimensions, label noise. REPTrees trained on it come out
// ~100-150 nodes with depth ~15 — much closer to the scoring hot path than
// the 2-feature noisyData trees above.
func attackishData(n int, rng *rand.Rand) *Dataset {
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, 11)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		score := x[0] + 0.7*x[3] - 0.5*x[7] + 0.3*x[9]*x[1]
		y := score > 0
		if rng.Float64() < 0.12 {
			y = !y
		}
		ds.Add(x, y)
	}
	return ds
}

func benchAttackishModel(b *testing.B) (*Bagging, []float64, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	ds := attackishData(6000, rng)
	m, err := TrainBagging(ds, DefaultBaggingSize, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		b.Fatal(err)
	}
	const stride = 11
	const probes = 1024
	rows := make([]float64, probes*stride)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	return m, rows, probes
}

// BenchmarkBaggingProbAttackShaped is the pre-arena per-pair path on
// attack-shaped trees; divide ns/op by the probe count for ns/row.
func BenchmarkBaggingProbAttackShaped(b *testing.B) {
	m, rows, probes := benchAttackishModel(b)
	const stride = 11
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := (i % probes) * stride
		sink += m.Prob(rows[r : r+stride])
	}
	_ = sink
}

// BenchmarkEnsembleProbBatchAttackShaped is the arena batch walk over the
// same rows — the kernel the attack's gather path feeds.
func BenchmarkEnsembleProbBatchAttackShaped(b *testing.B) {
	m, rows, probes := benchAttackishModel(b)
	e := m.Compile()
	const stride = 11
	out := make([]float64, probes)
	b.ResetTimer()
	for i := 0; i < b.N; i += probes {
		e.ProbBatch(rows, stride, out)
	}
}

func BenchmarkTrainBaggingREPTree(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ds := noisyData(5000, 0.15, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainBagging(ds, DefaultBaggingSize, TreeOptions{Kind: REPTree}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainStreams measures parallel ensemble training at a fixed worker
// count; compare across counts for the tree-level speedup.
func benchTrainStreams(b *testing.B, workers int) {
	seedRng := rand.New(rand.NewSource(2))
	ds := noisyData(5000, 0.15, seedRng)
	streams := func(tree int) *rand.Rand {
		return rand.New(rand.NewSource(int64(tree) + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainBaggingStreams(nil, ds, 32, TreeOptions{Kind: REPTree}, streams, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainBaggingStreams1(b *testing.B) { benchTrainStreams(b, 1) }
func BenchmarkTrainBaggingStreams2(b *testing.B) { benchTrainStreams(b, 2) }
func BenchmarkTrainBaggingStreams4(b *testing.B) { benchTrainStreams(b, 4) }
func BenchmarkTrainBaggingStreamsMax(b *testing.B) {
	benchTrainStreams(b, 0) // one goroutine per tree, capped at 32
}

// attackShapedTrainSet has the shape of one leave-one-out fold's training
// set at split layer 6 (21–26 k balanced samples): 24 k rows of the 11
// attack features, integer-quantized the way DBU distances, wirelengths,
// areas and congestion counts are, from a few dozen distinct values per
// column to a few thousand. The 5 k × 2 continuous sets above tie almost
// never; this one ties heavily, as the attack's samples do.
func attackShapedTrainSet() *Dataset {
	ds := attackishData(24000, rand.New(rand.NewSource(4)))
	scale := [11]float64{400, 400, 800, 400, 400, 800, 300, 50, 50, 10, 10}
	for _, x := range ds.X {
		for j := range x {
			x[j] = math.Round(x[j] * scale[j])
		}
	}
	return ds
}

// benchTrainAttackShaped trains n trees of kind on attackShapedTrainSet
// through the attack's training path, on one worker as the leave-one-out
// benchmark runs it.
func benchTrainAttackShaped(b *testing.B, kind TreeKind, n int) {
	ds := attackShapedTrainSet()
	opts := TreeOptions{Kind: kind}
	if kind == RandomTree {
		opts.MinLeaf = 1
	}
	streams := func(tree int) *rand.Rand { return rng.Derive(1, int64(tree)) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainBaggingStreams(nil, ds, n, opts, streams, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainBaggingAttackShaped(b *testing.B) {
	benchTrainAttackShaped(b, REPTree, DefaultBaggingSize)
}

func BenchmarkTrainRandomForestAttackShaped(b *testing.B) {
	benchTrainAttackShaped(b, RandomTree, DefaultForestSize)
}
