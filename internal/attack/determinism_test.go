package attack

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/pairs"
	"repro/internal/rng"
)

// sameResult fails the test unless a and b are byte-identical: every
// evaluation's candidate lists, truth probabilities, ground truth, and
// neighborhood radii must match exactly. Durations are excluded — they are
// wall-clock measurements, not results.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Evals) != len(b.Evals) {
		t.Fatalf("%s: %d vs %d evaluations", label, len(a.Evals), len(b.Evals))
	}
	for i := range a.Evals {
		if a.RadiusNorm[i] != b.RadiusNorm[i] {
			t.Fatalf("%s: target %d: RadiusNorm %v vs %v", label, i, a.RadiusNorm[i], b.RadiusNorm[i])
		}
		sameEval(t, fmt.Sprintf("%s: target %d", label, i), a.Evals[i], b.Evals[i])
	}
}

func sameEval(t *testing.T, label string, a, b *Evaluation) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one evaluation is nil", label)
		}
		return
	}
	if a.Design != b.Design || a.N != b.N || a.SplitLayer != b.SplitLayer {
		t.Fatalf("%s: identity differs: %s/%d/%d vs %s/%d/%d",
			label, a.Design, a.N, a.SplitLayer, b.Design, b.N, b.SplitLayer)
	}
	for v := range a.TruthP {
		if a.TruthP[v] != b.TruthP[v] {
			t.Fatalf("%s: TruthP[%d] = %v vs %v", label, v, a.TruthP[v], b.TruthP[v])
		}
		if a.Truth[v] != b.Truth[v] {
			t.Fatalf("%s: Truth[%d] = %d vs %d", label, v, a.Truth[v], b.Truth[v])
		}
	}
	for v := range a.Cands {
		if len(a.Cands[v]) != len(b.Cands[v]) {
			t.Fatalf("%s: v-pin %d has %d vs %d candidates", label, v, len(a.Cands[v]), len(b.Cands[v]))
		}
		for j := range a.Cands[v] {
			if a.Cands[v][j] != b.Cands[v][j] {
				t.Fatalf("%s: candidate %d/%d: %+v vs %+v", label, v, j, a.Cands[v][j], b.Cands[v][j])
			}
		}
	}
}

// TestRunDeterministicAcrossWorkers is the tentpole guarantee: Run's output
// is byte-identical for every worker count, and equals RunFoldInstances per
// index.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	chs := challenges(t, 8)
	cfg := Imp9()
	cfg.Seed = 42

	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	results := make([]*Result, len(workerCounts))
	for i, w := range workerCounts {
		c := cfg
		c.Workers = w
		r, err := runLOO(c, chs)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		results[i] = r
	}
	for i := 1; i < len(results); i++ {
		sameResult(t, fmt.Sprintf("workers %d vs %d", workerCounts[0], workerCounts[i]),
			results[0], results[i])
	}

	for target := range chs {
		ev, radius, err := runFold(cfg, chs, target)
		if err != nil {
			t.Fatalf("runFold(%d): %v", target, err)
		}
		if radius != results[0].RadiusNorm[target] {
			t.Fatalf("runFold(%d): radius %v, want %v", target, radius, results[0].RadiusNorm[target])
		}
		sameEval(t, fmt.Sprintf("runFold(%d)", target), results[0].Evals[target], ev)
	}
}

// TestTwoLevelDeterministicAcrossWorkers covers the streams the plain run
// never touches: level-2 negative draws and the level-2 ensemble.
func TestTwoLevelDeterministicAcrossWorkers(t *testing.T) {
	chs := challenges(t, 8)
	cfg := WithTwoLevel(Imp11())
	cfg.Seed = 7

	serial := cfg
	serial.Workers = 1
	a, err := runLOO(serial, chs)
	if err != nil {
		t.Fatal(err)
	}
	parallel := cfg
	parallel.Workers = runtime.GOMAXPROCS(0)
	b, err := runLOO(parallel, chs)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "two-level workers 1 vs GOMAXPROCS", a, b)
}

// TestProximityDeterministicAcrossWorkers checks the PA pipeline:
// RunProximityOnInstances' outcomes are identical at any worker count and
// equal the single-target validation (ProximityTargetInstances) per target.
func TestProximityDeterministicAcrossWorkers(t *testing.T) {
	insts := NewInstancesWorkers(challenges(t, 8), 0)
	cfg := Imp9()
	cfg.Seed = 42
	cfg.Workers = runtime.GOMAXPROCS(0)
	prior, err := RunInstances(cfg, insts)
	if err != nil {
		t.Fatal(err)
	}

	var base []PAOutcome
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		c := cfg
		c.Workers = w
		outs, err := RunProximityOnInstances(c, insts, prior)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if base == nil {
			base = outs
			continue
		}
		for i := range outs {
			if outs[i].Design != base[i].Design || outs[i].Success != base[i].Success ||
				outs[i].FixedSuccess != base[i].FixedSuccess || outs[i].BestFrac != base[i].BestFrac {
				t.Fatalf("workers=%d: PA outcome %d differs: %+v vs %+v", w, i, outs[i], base[i])
			}
		}
	}

	for target := range insts {
		out, err := ProximityTargetInstances(cfg, insts, target, prior.Evals[target], prior.RadiusNorm[target])
		if err != nil {
			t.Fatal(err)
		}
		if out.Success != base[target].Success || out.FixedSuccess != base[target].FixedSuccess ||
			out.BestFrac != base[target].BestFrac {
			t.Fatalf("ProximityTargetInstances(%d) = %+v, want %+v", target, out, base[target])
		}
	}
}

// TestRunCollectsPartialErrors pins the bugfix: one failing target must not
// discard its siblings' evaluations. The test-only failing family identifies
// which target it is training for by the first draw of its derived stream —
// the stream is a pure function of (seed, unit, target), which is itself the
// property under test.
func TestRunCollectsPartialErrors(t *testing.T) {
	chs := challenges(t, 8)
	cfg := WithFamily(ML9(), "test-fail")
	cfg.Name = "ML-9-partial"
	cfg.Seed = 13
	cfg.Workers = 2

	const failTarget = 1
	failFamilyDraw.Store(rng.Derive(cfg.Seed, model.UnitLevel1, failTarget).Int63())

	res, err := runLOO(cfg, chs)
	if err == nil {
		t.Fatal("Run succeeded despite a failing target")
	}
	if res == nil {
		t.Fatal("Run returned no partial result")
	}
	if !strings.Contains(err.Error(), "1 of 5 targets failed") {
		t.Errorf("error %q does not report the failure count", err)
	}
	if !strings.Contains(err.Error(), chs[failTarget].Design.Name) {
		t.Errorf("error %q does not name the failing design", err)
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("error %q does not wrap the cause", err)
	}
	for i, ev := range res.Evals {
		if i == failTarget {
			if ev != nil {
				t.Errorf("failed target %d has an evaluation", i)
			}
			if res.RadiusNorm[i] != -1 {
				t.Errorf("failed target %d has radius %v, want -1", i, res.RadiusNorm[i])
			}
			continue
		}
		if ev == nil {
			t.Errorf("sibling target %d lost its evaluation", i)
		}
	}
	if res.MeanTrainDur() < 0 || res.MeanTestDur() < 0 {
		t.Error("partial-result durations must not panic or go negative")
	}
}

// constScorer is a trivial concurrency-safe Scorer for failure-path tests.
type constScorer struct{}

func (constScorer) Prob(x []float64) float64 { return 0.5 }

// failFamily is a test-only learner family whose Train fails exactly when
// its derived stream's first draw matches failFamilyDraw — proving the
// stream is a pure function of (seed, unit, target).
type failFamily struct{}

var failFamilyDraw atomic.Int64

func (failFamily) Name() string { return "test-fail" }

func (failFamily) HashOptions(w io.Writer, o model.TrainOptions) {
	fmt.Fprintf(w, "family=test-fail\n")
}

func (failFamily) Train(ctx model.TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	if ctx.Rng().Int63() == failFamilyDraw.Load() {
		return nil, fmt.Errorf("injected failure")
	}
	return constScorer{}, nil
}

func (failFamily) Encode(sc pairs.Scorer) ([]byte, error) {
	return nil, fmt.Errorf("test-fail family is not serializable")
}

func (failFamily) Decode(data []byte) (pairs.Scorer, error) {
	return nil, fmt.Errorf("test-fail family is not serializable")
}

func init() { model.Register(failFamily{}) }
