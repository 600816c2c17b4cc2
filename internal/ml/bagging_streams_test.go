package ml

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rng"
)

// streamsDataset builds a small two-cluster dataset deterministic in seed.
func streamsDataset(seed int64, n int) *Dataset {
	r := rand.New(rand.NewSource(seed))
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		pos := i%2 == 0
		center := 0.0
		if pos {
			center = 2.0
		}
		ds.Add([]float64{center + r.NormFloat64(), center - r.NormFloat64(), r.Float64()}, pos)
	}
	return ds
}

// TestTrainBaggingStreamsDeterministic pins the headline guarantee at the
// ml layer: with per-tree streams, the trained ensemble is identical at
// every worker count.
func TestTrainBaggingStreamsDeterministic(t *testing.T) {
	ds := streamsDataset(11, 300)
	streams := func(tree int) *rand.Rand { return rng.Derive(7, 3, int64(tree)) }
	opts := TreeOptions{Kind: REPTree}

	var base *Bagging
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 0} {
		b, err := TrainBaggingStreams(nil, ds, 16, opts, streams, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = b
			continue
		}
		if b.Nodes() != base.Nodes() {
			t.Fatalf("workers=%d: %d nodes, want %d", workers, b.Nodes(), base.Nodes())
		}
		for i, tree := range b.Trees {
			if tree.Nodes() != base.Trees[i].Nodes() {
				t.Fatalf("workers=%d: tree %d has %d nodes, want %d",
					workers, i, tree.Nodes(), base.Trees[i].Nodes())
			}
		}
		for _, x := range ds.X {
			if p, q := b.Prob(x), base.Prob(x); p != q {
				t.Fatalf("workers=%d: Prob diverges: %g vs %g", workers, p, q)
			}
		}
	}
}

// TestTrainBaggingStreamsMatchesSequential checks that one worker consuming
// the same per-tree streams as the parallel pool reproduces a hand-rolled
// sequential loop exactly — the pool adds scheduling, never randomness.
func TestTrainBaggingStreamsMatchesSequential(t *testing.T) {
	ds := streamsDataset(23, 200)
	streams := func(tree int) *rand.Rand { return rng.Derive(9, 1, int64(tree)) }
	opts := TreeOptions{Kind: RandomTree, MinLeaf: 1}

	want := make([]*Tree, 8)
	for i := range want {
		r := streams(i)
		tree, err := TrainTree(ds.Bootstrap(r), opts, r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tree
	}
	got, err := TrainBaggingStreams(nil, ds, len(want), opts, streams, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Trees[i].Nodes() != want[i].Nodes() {
			t.Fatalf("tree %d: %d nodes, want %d", i, got.Trees[i].Nodes(), want[i].Nodes())
		}
		for _, x := range ds.X[:50] {
			if p, q := got.Trees[i].Prob(x), want[i].Prob(x); p != q {
				t.Fatalf("tree %d: Prob %g, want %g", i, p, q)
			}
		}
	}
}

func TestTrainBaggingStreamsErrors(t *testing.T) {
	ds := streamsDataset(3, 50)
	streams := func(tree int) *rand.Rand { return rng.Derive(1, int64(tree)) }
	if _, err := TrainBaggingStreams(nil, ds, 0, TreeOptions{}, streams, 2); err == nil {
		t.Error("non-positive ensemble size accepted")
	}
	if _, err := TrainBaggingStreams(nil, &Dataset{}, 4, TreeOptions{}, streams, 2); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := TreeOptions{Features: []int{99}}
	if _, err := TrainBaggingStreams(nil, ds, 4, bad, streams, 2); err == nil {
		t.Error("out-of-range feature index accepted")
	}
	for name, bad := range degenerateDatasets() {
		if _, err := TrainBaggingStreams(nil, bad.ds, 4, TreeOptions{}, streams, 2); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, bad.want)
		}
	}
}

func TestTrainBaggingStreamsQuality(t *testing.T) {
	ds := streamsDataset(5, 400)
	streams := func(tree int) *rand.Rand { return rng.Derive(5, 2, int64(tree)) }
	b, err := TrainBaggingStreams(nil, ds, DefaultBaggingSize, TreeOptions{Kind: REPTree}, streams, 0)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range ds.X {
		if b.Predict(x, 0.5) == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.8 {
		t.Errorf("training accuracy %.3f on separable clusters", acc)
	}
	for _, x := range ds.X {
		if p := b.Prob(x); p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability %g out of range", p)
		}
	}
}
