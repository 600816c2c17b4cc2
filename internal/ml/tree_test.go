package ml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// separableData is perfectly separated by feature 0 at 0.5.
func separableData(n int, rng *rand.Rand) *Dataset {
	d := &Dataset{}
	for i := 0; i < n; i++ {
		y := rng.Intn(2) == 0
		x0 := rng.Float64() * 0.5
		if y {
			x0 += 0.5
		}
		d.Add([]float64{x0, rng.Float64()}, y)
	}
	return d
}

// noisyData has feature 0 weakly predictive and feature 1 pure noise.
func noisyData(n int, flip float64, rng *rand.Rand) *Dataset {
	d := &Dataset{}
	for i := 0; i < n; i++ {
		y := rng.Intn(2) == 0
		x0 := rng.NormFloat64()
		if y {
			x0 += 1.5
		}
		if rng.Float64() < flip {
			y = !y
		}
		d.Add([]float64{x0, rng.Float64()}, y)
	}
	return d
}

func accuracy(t *Tree, ds *Dataset) float64 {
	correct := 0
	for i := range ds.X {
		if t.Predict(ds.X[i]) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func TestTreeLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := separableData(500, rng)
	for _, kind := range []TreeKind{REPTree, RandomTree} {
		tree, err := TrainTree(ds, TreeOptions{Kind: kind}, rng)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if acc := accuracy(tree, ds); acc < 0.98 {
			t.Errorf("%v: training accuracy %.3f on separable data", kind, acc)
		}
	}
}

func TestTreeGeneralises(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := noisyData(2000, 0.1, rng)
	test := noisyData(1000, 0.0, rng)
	tree, err := TrainTree(train, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, test); acc < 0.75 {
		t.Errorf("test accuracy %.3f, want >= 0.75 (Bayes ~0.77 pre-flip)", acc)
	}
}

func TestREPTreeSmallerThanRandomTree(t *testing.T) {
	// The paper's rationale for switching base classifiers: pruned trees
	// are smaller than unpruned randomised trees on noisy data.
	rng := rand.New(rand.NewSource(3))
	ds := noisyData(3000, 0.25, rng)
	rep, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := TrainTree(ds, TreeOptions{Kind: RandomTree, MinLeaf: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes() >= rnd.Nodes() {
		t.Errorf("REPTree %d nodes not smaller than RandomTree %d nodes", rep.Nodes(), rnd.Nodes())
	}
}

func TestREPTreePrunesPureNoise(t *testing.T) {
	// With labels independent of features, reduced-error pruning must
	// remove the bulk of the chance splits an unpruned tree keeps.
	rng := rand.New(rand.NewSource(4))
	ds := &Dataset{}
	for i := 0; i < 1000; i++ {
		ds.Add([]float64{rng.Float64(), rng.Float64()}, rng.Intn(2) == 0)
	}
	pruned, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := TrainTree(ds, TreeOptions{Kind: RandomTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Nodes()*2 > unpruned.Nodes() {
		t.Errorf("noise tree has %d nodes vs %d unpruned; pruning ineffective",
			pruned.Nodes(), unpruned.Nodes())
	}
}

func TestFeatureRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := separableData(800, rng)
	// Restricted to the noise feature, the tree cannot learn.
	tree, err := TrainTree(ds, TreeOptions{Kind: REPTree, Features: []int{1}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, ds); acc > 0.65 {
		t.Errorf("accuracy %.3f using only the noise feature; restriction leaked", acc)
	}
	// Restricted to the informative feature, it learns fine.
	tree2, err := TrainTree(ds, TreeOptions{Kind: REPTree, Features: []int{0}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree2, ds); acc < 0.95 {
		t.Errorf("accuracy %.3f using the informative feature", acc)
	}
}

func TestTrainTreeRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := TrainTree(&Dataset{}, TreeOptions{}, rng); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := separableData(10, rng)
	if _, err := TrainTree(ds, TreeOptions{Features: []int{5}}, rng); err == nil {
		t.Error("out-of-range feature accepted")
	}
	if _, err := TrainTree(ds, TreeOptions{Kind: TreeKind(9)}, rng); err == nil {
		t.Error("unknown tree kind accepted")
	}
	for name, bad := range degenerateDatasets() {
		if _, err := TrainTree(bad.ds, TreeOptions{}, rng); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, bad.want)
		}
	}
}

// degenerateDatasets are inputs Dataset.Validate must reject, each with
// the text its error must carry to name the offending cell.
func degenerateDatasets() map[string]struct {
	ds   *Dataset
	want string
} {
	cell := func(v float64) *Dataset {
		ds := separableData(6, rand.New(rand.NewSource(1)))
		ds.X[4] = []float64{ds.X[4][0], v}
		return ds
	}
	return map[string]struct {
		ds   *Dataset
		want string
	}{
		"zero-width rows": {&Dataset{X: [][]float64{{}, {}}, Y: []bool{true, false}}, "row 0 has width 0"},
		"NaN":             {cell(math.NaN()), "row 4 column 1"},
		"+Inf":            {cell(math.Inf(1)), "row 4 column 1"},
		"-Inf":            {cell(math.Inf(-1)), "row 4 column 1"},
	}
}

func TestProbInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := noisyData(500, 0.2, rng)
	tree, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		p := tree.Prob([]float64{a, b})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountsConsistentWithProb(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := noisyData(500, 0.2, rng)
	tree, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.NormFloat64(), rng.Float64()}
		p, n := tree.Counts(x)
		if p < 0 || n < 0 {
			t.Fatalf("negative counts %d/%d", p, n)
		}
		want := float64(p+1) / float64(p+n+2)
		if got := tree.Prob(x); got != want {
			t.Fatalf("Prob = %f, want %f from counts %d/%d", got, want, p, n)
		}
	}
}

func TestBackfitCountsCoverFullTrainingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := noisyData(600, 0.1, rng)
	tree, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Summing leaf counts by routing every training row must equal the
	// training set size exactly once per row. The pointer tree is freed at
	// flatten time, so walk the flat representation.
	total := 0
	for _, fn := range tree.flat {
		if fn.feature < 0 {
			total += int(fn.pos + fn.neg)
		}
	}
	if total != ds.Len() {
		t.Errorf("leaf counts sum to %d, want %d", total, ds.Len())
	}
}

func TestTreeDeterministicWithSeed(t *testing.T) {
	ds := separableData(300, rand.New(rand.NewSource(10)))
	t1, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Nodes() != t2.Nodes() || t1.Depth() != t2.Depth() {
		t.Error("same-seed trees differ")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds := noisyData(2000, 0.05, rng)
	tree, err := TrainTree(ds, TreeOptions{Kind: RandomTree, MaxDepth: 3, MinLeaf: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 {
		t.Errorf("depth %d exceeds MaxDepth 3", tree.Depth())
	}
}

func TestTreeKindString(t *testing.T) {
	if REPTree.String() != "REPTree" || RandomTree.String() != "RandomTree" {
		t.Error("TreeKind string mismatch")
	}
}

func TestSingleClassDataYieldsLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := &Dataset{}
	for i := 0; i < 50; i++ {
		ds.Add([]float64{rng.Float64()}, true)
	}
	tree, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 1 {
		t.Errorf("single-class tree has %d nodes, want 1", tree.Nodes())
	}
	// Laplace smoothing: 50 positives of 50 yield (50+1)/(50+2).
	if p := tree.Prob([]float64{0.5}); p != 51.0/52.0 {
		t.Errorf("single-class prob = %f, want %f", p, 51.0/52.0)
	}
}

// TestPruneFracOutsideUnitIntervalTakesDefault trains with every kind of
// PruneFrac outside (0, 1), NaN included, and requires the tree the
// default trains from the same rng.
func TestPruneFracOutsideUnitIntervalTakesDefault(t *testing.T) {
	ds := noisyData(400, 0.2, rand.New(rand.NewSource(14)))
	want, err := TrainTree(ds, TreeOptions{Kind: REPTree}, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{math.NaN(), 0, -0.5, 1, 1.5, math.Inf(1), math.Inf(-1)} {
		got, err := TrainTree(ds, TreeOptions{Kind: REPTree, PruneFrac: frac}, rand.New(rand.NewSource(15)))
		if err != nil {
			t.Fatalf("PruneFrac %v: %v", frac, err)
		}
		sameTree(t, fmt.Sprintf("PruneFrac %v", frac), got, want)
	}
}

// TestPermuteMatchesRandPerm pins permute to rng.Perm on equal-seeded
// generators: the same permutation, and the generators left in step.
func TestPermuteMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4964} {
		r1, r2 := rand.New(rand.NewSource(int64(n)+7)), rand.New(rand.NewSource(int64(n)+7))
		got, want := permute(make([]int32, n), r1), r2.Perm(n)
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: permute[%d] = %d, rand.Perm %d", n, i, got[i], want[i])
			}
		}
		if r1.Int63() != r2.Int63() {
			t.Errorf("n=%d: permute drew other than rand.Perm", n)
		}
	}
}
