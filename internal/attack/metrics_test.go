package attack

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pairs"
)

// randomEval builds a random but internally consistent Evaluation: each
// v-pin gets a sorted candidate list and the truth probability is recorded
// consistently with the list contents.
func randomEval(rng *rand.Rand, n int) *Evaluation {
	ev := &Evaluation{
		N:      n,
		Cands:  make([][]Candidate, n),
		TruthP: make([]float32, n),
		Truth:  make([]int32, n),
	}
	for a := 0; a < n; a++ {
		ev.Truth[a] = int32((a + 1) % n)
		ev.TruthP[a] = -1
		k := rng.Intn(n)
		cands := make([]Candidate, 0, k)
		for j := 0; j < k; j++ {
			other := int32(rng.Intn(n))
			if int(other) == a {
				continue
			}
			// Quantised probabilities create plenty of ties, stressing the
			// tie-handling paths.
			p := float32(rng.Intn(8)) / 8
			cands = append(cands, Candidate{Other: other, P: p, D: float32(rng.Intn(1000))})
			if other == ev.Truth[a] && p > ev.TruthP[a] {
				ev.TruthP[a] = p
			}
		}
		slices.SortFunc(cands, pairs.CompareCandidates)
		ev.Cands[a] = cands
	}
	return ev
}

func TestRandomEvalAccuracyMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		ev := randomEval(rng, 3+rng.Intn(30))
		prev := 0.0
		for k := 0; k <= ev.N; k++ {
			acc := ev.AccuracyAtK(k)
			if acc < prev-1e-12 {
				t.Fatalf("trial %d: accuracy decreased at k=%d", trial, k)
			}
			if acc < 0 || acc > 1 {
				t.Fatalf("trial %d: accuracy %f out of range", trial, acc)
			}
			prev = acc
		}
	}
}

func TestRandomEvalMeanLoCMonotoneInThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		ev := randomEval(rng, 3+rng.Intn(30))
		prev := ev.MeanLoC(0)
		for _, thr := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
			cur := ev.MeanLoC(thr)
			if cur > prev+1e-9 {
				t.Fatalf("trial %d: MeanLoC increased at %f", trial, thr)
			}
			prev = cur
		}
	}
}

func TestRandomEvalAccuracyBelowThresholdAccuracy(t *testing.T) {
	// Accuracy at threshold t can never exceed MaxAccuracy.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		ev := randomEval(rng, 3+rng.Intn(30))
		max := ev.MaxAccuracy()
		for _, thr := range []float64{0, 0.3, 0.6, 0.9} {
			if a := ev.Accuracy(thr); a > max+1e-12 {
				t.Fatalf("trial %d: Accuracy(%f)=%f above max %f", trial, thr, a, max)
			}
		}
	}
}

func TestRandomEvalLoCForAccuracyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		ev := randomEval(rng, 3+rng.Intn(30))
		for _, target := range []float64{0.1, 0.3, 0.5} {
			loc := ev.LoCForAccuracy(target)
			if loc < 0 {
				// Unreachable: even the largest k must fall short.
				maxK := 0
				for _, c := range ev.Cands {
					if len(c) > maxK {
						maxK = len(c)
					}
				}
				if ev.AccuracyAtK(maxK) >= target {
					t.Fatalf("trial %d: LoCForAccuracy(%f) = -1 but reachable", trial, target)
				}
				continue
			}
			if ev.AccuracyAtK(int(loc)) < target-1e-12 {
				t.Fatalf("trial %d: k=%v does not reach accuracy %f", trial, loc, target)
			}
		}
	}
}

func TestRandomEvalProximityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		ev := randomEval(rng, 3+rng.Intn(30))
		for _, f := range []float64{0.01, 0.1, 0.5, 1.0} {
			s := ev.ProximitySuccess(f, rng)
			if s < 0 || s > 1 {
				t.Fatalf("trial %d: PA success %f out of range", trial, s)
			}
			if s > ev.MaxAccuracy()+1e-12 {
				t.Fatalf("trial %d: PA success %f above max accuracy %f", trial, s, ev.MaxAccuracy())
			}
		}
	}
}

func TestAggregateMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	evals := []*Evaluation{randomEval(rng, 20), randomEval(rng, 40)}
	for _, f := range []float64{0.05, 0.1, 0.5} {
		agg := AggregateAccuracyAtLoCFrac(evals, f)
		want := (evals[0].AccuracyAtLoCFrac(f) + evals[1].AccuracyAtLoCFrac(f)) / 2
		if agg != want {
			t.Errorf("aggregate accuracy at %f = %f, want %f", f, agg, want)
		}
	}
	if AggregateAccuracyAtLoCFrac(nil, 0.1) != 0 {
		t.Error("empty aggregate should be 0")
	}
	// AggregateLoCFracForAccuracy must invert AggregateAccuracyAtLoCFrac.
	target := AggregateAccuracyAtLoCFrac(evals, 0.3)
	if target > 0 {
		frac := AggregateLoCFracForAccuracy(evals, target-1e-9, 0.9)
		if frac < 0 {
			t.Fatal("reachable aggregate accuracy reported unreachable")
		}
		if got := AggregateAccuracyAtLoCFrac(evals, frac); got < target-0.05 {
			t.Errorf("inverted fraction %f yields accuracy %f, want >= %f", frac, got, target)
		}
	}
	if AggregateLoCFracForAccuracy(evals, 1.01, 0.9) != -1 {
		t.Error("impossible accuracy should be unreachable")
	}
}

func TestCurveFractionsGrid(t *testing.T) {
	fr := CurveFractions()
	if len(fr) == 0 {
		t.Fatal("empty curve grid")
	}
	for i := 1; i < len(fr); i++ {
		if fr[i] <= fr[i-1] {
			t.Fatal("curve grid not increasing")
		}
	}
	if fr[0] > 1e-4 || fr[len(fr)-1] > 0.15 {
		t.Errorf("curve grid range [%g, %g] unexpected", fr[0], fr[len(fr)-1])
	}
}

func TestResultDurations(t *testing.T) {
	r := &Result{Evals: []*Evaluation{
		{TrainDur: 100, TestDur: 10},
		{TrainDur: 300, TestDur: 30},
	}}
	if r.MeanTrainDur() != 200 {
		t.Errorf("MeanTrainDur = %v", r.MeanTrainDur())
	}
	if r.MeanTestDur() != 20 {
		t.Errorf("MeanTestDur = %v", r.MeanTestDur())
	}
	empty := &Result{}
	if empty.MeanTrainDur() != 0 || empty.MeanTestDur() != 0 {
		t.Error("empty result durations must be 0")
	}
}
