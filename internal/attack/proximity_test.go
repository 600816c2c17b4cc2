package attack

import (
	"math/rand"
	"testing"

	"repro/internal/split"
)

// synthEval builds a small hand-crafted Evaluation for deterministic unit
// tests of the metrics and the proximity pick.
func synthEval() *Evaluation {
	// 4 v-pins; truth pairs (0,1) and (2,3).
	return &Evaluation{
		ConfigName: "synth",
		Design:     "synth",
		N:          4,
		Truth:      []int32{1, 0, 3, 2},
		TruthP:     []float32{0.9, 0.9, 0.4, -1},
		Cands: [][]Candidate{
			{{Other: 1, P: 0.9, D: 100}, {Other: 2, P: 0.8, D: 50}, {Other: 3, P: 0.1, D: 300}},
			{{Other: 0, P: 0.9, D: 100}, {Other: 3, P: 0.2, D: 80}},
			{{Other: 1, P: 0.7, D: 40}, {Other: 3, P: 0.4, D: 120}},
			nil, // v-pin 3: nothing scored (e.g. filtered out)
		},
	}
}

func TestSynthAccuracy(t *testing.T) {
	ev := synthEval()
	// k=1: v0 truth ranked 1st (hit), v1 truth 1st (hit), v2 truth 2nd
	// (miss), v3 unscored (miss) => 0.5.
	if acc := ev.AccuracyAtK(1); acc != 0.5 {
		t.Errorf("AccuracyAtK(1) = %f, want 0.5", acc)
	}
	// k=2: v2's truth now included => 0.75. v3 can never hit.
	if acc := ev.AccuracyAtK(2); acc != 0.75 {
		t.Errorf("AccuracyAtK(2) = %f, want 0.75", acc)
	}
	if acc := ev.MaxAccuracy(); acc != 0.75 {
		t.Errorf("MaxAccuracy = %f, want 0.75", acc)
	}
}

func TestSynthMeanLoC(t *testing.T) {
	ev := synthEval()
	if loc := ev.MeanLoC(0.5); loc != (2+1+1+0)/4.0 {
		t.Errorf("MeanLoC(0.5) = %f", loc)
	}
	if loc := ev.MeanLoC(0.0); loc != (3+2+2+0)/4.0 {
		t.Errorf("MeanLoC(0) = %f", loc)
	}
}

func TestSynthLoCForAccuracy(t *testing.T) {
	ev := synthEval()
	if loc := ev.LoCForAccuracy(0.5); loc != 1 {
		t.Errorf("LoCForAccuracy(0.5) = %f, want 1", loc)
	}
	if loc := ev.LoCForAccuracy(0.75); loc != 2 {
		t.Errorf("LoCForAccuracy(0.75) = %f, want 2", loc)
	}
	if loc := ev.LoCForAccuracy(0.9); loc != -1 {
		t.Errorf("LoCForAccuracy(0.9) = %f, want -1 (unreachable)", loc)
	}
}

func TestSynthTieHandling(t *testing.T) {
	// Truth ties with two other candidates at p=0.5; with k=1 the truth
	// occupies one of three equally likely slots.
	ev := &Evaluation{
		N:      1,
		Truth:  []int32{1},
		TruthP: []float32{0.5},
		Cands: [][]Candidate{
			{{Other: 1, P: 0.5, D: 10}, {Other: 2, P: 0.5, D: 20}, {Other: 3, P: 0.5, D: 30}},
		},
	}
	if acc := ev.AccuracyAtK(1); acc < 0.333 || acc > 0.334 {
		t.Errorf("tied AccuracyAtK(1) = %f, want 1/3", acc)
	}
	if acc := ev.AccuracyAtK(3); acc != 1 {
		t.Errorf("tied AccuracyAtK(3) = %f, want 1", acc)
	}
}

func TestProximityPickNearest(t *testing.T) {
	ev := synthEval()
	rng := rand.New(rand.NewSource(1))
	// v0 with k=3: candidates at D 100/50/300; nearest is Other=2.
	pick, ok := ev.proximityPick(0, 3, rng)
	if !ok || pick != 2 {
		t.Errorf("pick = %d/%v, want 2", pick, ok)
	}
	// v0 with k=1: only the top-p candidate (truth, D=100).
	pick, ok = ev.proximityPick(0, 1, rng)
	if !ok || pick != 1 {
		t.Errorf("pick@k1 = %d/%v, want 1", pick, ok)
	}
	// v3 has no candidates.
	if _, ok := ev.proximityPick(3, 5, rng); ok {
		t.Error("pick on empty candidate list should fail")
	}
}

func TestProximityPickDistanceTie(t *testing.T) {
	// Two candidates at the same distance: the higher-p one wins.
	ev := &Evaluation{
		N:     1,
		Truth: []int32{2},
		Cands: [][]Candidate{
			{{Other: 1, P: 0.9, D: 10}, {Other: 2, P: 0.5, D: 10}},
		},
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		pick, ok := ev.proximityPick(0, 2, rng)
		if !ok || pick != 1 {
			t.Fatalf("distance tie must resolve to higher p, got %d", pick)
		}
	}
}

func TestProximityPickFullTieIsRandom(t *testing.T) {
	ev := &Evaluation{
		N:     1,
		Truth: []int32{2},
		Cands: [][]Candidate{
			{{Other: 1, P: 0.5, D: 10}, {Other: 2, P: 0.5, D: 10}},
		},
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[int32]int{}
	for i := 0; i < 200; i++ {
		pick, ok := ev.proximityPick(0, 2, rng)
		if !ok {
			t.Fatal("pick failed")
		}
		seen[pick]++
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Errorf("full tie not randomised: %v", seen)
	}
}

func TestProximitySuccessBounds(t *testing.T) {
	res := run(t, Imp9(), 8)
	rng := rand.New(rand.NewSource(4))
	for _, ev := range res.Evals {
		for _, f := range []float64{0.001, 0.01, 0.1} {
			s := ev.ProximitySuccess(f, rng)
			if s < 0 || s > 1 {
				t.Fatalf("PA success %.3f out of range", s)
			}
			if s > ev.MaxAccuracy()+1e-9 {
				t.Fatalf("PA success %.3f exceeds max accuracy %.3f", s, ev.MaxAccuracy())
			}
		}
	}
}

func TestRunProximityOutcomes(t *testing.T) {
	chs := challenges(t, 8)
	insts := NewInstancesWorkers(chs, 0)
	outcomes, err := RunProximityOnInstances(Imp9(), insts, run(t, Imp9(), 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(chs) {
		t.Fatalf("%d outcomes for %d designs", len(outcomes), len(chs))
	}
	grid := map[float64]bool{}
	for _, f := range DefaultPAFractions() {
		grid[f] = true
	}
	for _, o := range outcomes {
		if o.Success < 0 || o.Success > 1 || o.FixedSuccess < 0 || o.FixedSuccess > 1 {
			t.Errorf("%s: PA rates out of range: %+v", o.Design, o)
		}
		if !grid[o.BestFrac] {
			t.Errorf("%s: BestFrac %f not from the validation grid", o.Design, o.BestFrac)
		}
	}
}

func TestRunProximityRejectsBadInput(t *testing.T) {
	chs := challenges(t, 8)
	prior := run(t, Imp9(), 8)
	if _, err := RunProximityOnInstances(Imp9(), NewInstancesWorkers(chs[:1], 0), prior); err == nil {
		t.Error("single design accepted")
	}
	insts := NewInstancesWorkers(chs, 0)
	if _, err := RunProximityOnInstances(Imp9(), insts, nil); err == nil {
		t.Error("missing prior result accepted")
	}
	if _, err := RunProximityOnInstances(Imp9(), insts[:3], prior); err == nil {
		t.Error("prior result over a different design count accepted")
	}
}

func TestObfuscationNoiseHurtsAttack(t *testing.T) {
	// Gaussian y-noise on the v-pins (design obfuscation, §III-I) must
	// degrade the attack: lower aggregate accuracy at a fixed LoC size.
	chs := challenges(t, 6)
	rng := rand.New(rand.NewSource(7))
	noised := make([]*split.Challenge, len(chs))
	for i, ch := range chs {
		noised[i] = ch.WithNoise(0.015, rng)
	}
	clean := run(t, Imp11(), 6)
	cfg := Imp11()
	cfg.Name = "Imp-11-noise"
	noisy, err := runLOO(cfg, noised)
	if err != nil {
		t.Fatal(err)
	}
	var cleanAcc, noisyAcc float64
	for i := range clean.Evals {
		cleanAcc += clean.Evals[i].AccuracyAtK(10)
		noisyAcc += noisy.Evals[i].AccuracyAtK(10)
	}
	if noisyAcc >= cleanAcc {
		t.Errorf("noise did not hurt: clean %.3f vs noisy %.3f", cleanAcc/5, noisyAcc/5)
	}
}
