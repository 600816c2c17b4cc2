package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/par"
)

// Bagging is the bootstrap-aggregating meta-classifier. Following Weka, it
// combines base trees by soft voting: the ensemble probability is the mean
// of the per-tree leaf-frequency probabilities (paper eq. 1-3), and the
// binary prediction applies a threshold — 0.5 by default, but the attack
// varies it to control LoC sizes (paper §III-F).
//
// A trained Bagging is immutable; Prob, Predict, and Nodes are safe for
// concurrent use from any number of goroutines.
type Bagging struct {
	Trees []*Tree
}

// DefaultBaggingSize is Weka's default number of REPTrees in Bagging. The
// paper's headline models use exactly this.
const DefaultBaggingSize = 10

// DefaultForestSize is Weka's default number of RandomTrees in
// RandomForest, the slower baseline the paper compares against.
const DefaultForestSize = 100

// TrainBagging trains n base trees sequentially on independent bootstrap
// resamples, all drawn from the single shared rng in tree order. The
// resulting ensemble depends on the rng's state and on every draw made
// during training; for the scheduling-independent parallel path used by the
// attack engine, see TrainBaggingStreams.
func TrainBagging(ds *Dataset, n int, opts TreeOptions, rng *rand.Rand) (*Bagging, error) {
	// One worker runs the trees inline in index order, so handing every
	// tree the same generator draws from it sequentially.
	return trainBagging(ds, n, opts, func(int) *rand.Rand { return rng }, 1)
}

// TrainBaggingStreams trains the n base trees on up to workers goroutines.
// Tree i draws its bootstrap resample and all induction randomness (the
// REPTree grow/prune split, RandomTree per-node feature sampling)
// exclusively from streams(i), so the trained ensemble depends only on the
// streams, never on scheduling: any worker count, including 1, yields a
// bit-identical model. This is the training path behind the attack
// engine's determinism guarantee (see internal/rng).
//
// streams is called at most once per tree, possibly from several
// goroutines concurrently, and must return an independent generator per
// index (a pure derivation such as rng.Derive qualifies). workers <= 0
// selects one goroutine per tree, capped at the tree count. The dataset is
// only read; it must not be mutated concurrently. It is converted once
// into presorted columns that every goroutine reads; each goroutine
// reuses its own induction buffers from tree to tree.
func TrainBaggingStreams(o *obs.Context, ds *Dataset, n int, opts TreeOptions, streams func(tree int) *rand.Rand, workers int) (*Bagging, error) {
	if workers <= 0 {
		workers = n
	}
	b, err := trainBagging(ds, n, opts, streams, workers)
	if err != nil {
		return nil, err
	}
	if o.Enabled() {
		h := o.Metrics().Histogram("ml.tree.nodes")
		for _, t := range b.Trees {
			h.Observe(float64(t.Nodes()))
		}
		o.Metrics().Counter("ml.trees.trained").Add(int64(n))
		o.Log().Debug("bagging trained", "trees", n, "samples", ds.Len(), "nodes", b.Nodes())
	}
	return b, nil
}

func trainBagging(ds *Dataset, n int, opts TreeOptions, streams func(tree int) *rand.Rand, workers int) (*Bagging, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ml: bagging size %d must be positive", n)
	}
	c, err := newColumns(ds, opts)
	if err != nil {
		return nil, err
	}
	trees := make([]*Tree, n)
	growers := make([]*grower, par.Workers(workers, n))
	// No tree can fail once newColumns has accepted the data and options.
	_ = par.For(n, workers, func(w, i int) error {
		if growers[w] == nil {
			growers[w] = newGrower(c)
		}
		g, r := growers[w], streams(i)
		trees[i] = g.train(drawRows(g.sample, len(g.sample), r), r)
		return nil
	})
	return &Bagging{Trees: trees}, nil
}

// TrainRandomForest is Bagging with RandomTree base classifiers — Weka's
// RandomForest, used by the paper's earlier configuration [18]. Like
// TrainBagging it trains sequentially from the shared rng.
func TrainRandomForest(ds *Dataset, n int, features []int, rng *rand.Rand) (*Bagging, error) {
	return TrainBagging(ds, n, TreeOptions{Kind: RandomTree, Features: features, MinLeaf: 1}, rng)
}

// Prob returns the soft-voting ensemble probability p(x) in [0, 1].
func (b *Bagging) Prob(x []float64) float64 {
	var sum float64
	for _, t := range b.Trees {
		sum += t.Prob(x)
	}
	return sum / float64(len(b.Trees))
}

// Predict applies threshold t to the ensemble probability.
func (b *Bagging) Predict(x []float64, t float64) bool {
	return b.Prob(x) >= t
}

// Nodes returns the total node count across all trees.
func (b *Bagging) Nodes() int {
	n := 0
	for _, t := range b.Trees {
		n += t.Nodes()
	}
	return n
}
