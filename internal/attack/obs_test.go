package attack

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunTargetMatchesRun pins the single-target entry point to the full
// leave-one-out run: per-target randomness depends only on the seed and the
// target index, so RunTargetInstances must reproduce RunInstances'
// evaluation exactly.
func TestRunTargetMatchesRun(t *testing.T) {
	insts := NewInstancesWorkers(challenges(t, 8), 0)
	cfg := Imp9()
	full := run(t, cfg, 8)
	for target := range insts {
		ev, radius, err := RunTargetInstances(cfg, insts, target)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Evals[target]
		if ev.Design != want.Design || ev.N != want.N {
			t.Fatalf("target %d: design/N %s/%d, want %s/%d",
				target, ev.Design, ev.N, want.Design, want.N)
		}
		if radius != full.RadiusNorm[target] {
			t.Errorf("target %d: radius %f, want %f", target, radius, full.RadiusNorm[target])
		}
		for v := range want.TruthP {
			if ev.TruthP[v] != want.TruthP[v] {
				t.Fatalf("target %d: TruthP[%d] = %f, want %f",
					target, v, ev.TruthP[v], want.TruthP[v])
			}
		}
		for a := range want.Cands {
			if len(ev.Cands[a]) != len(want.Cands[a]) {
				t.Fatalf("target %d: v-pin %d has %d candidates, want %d",
					target, a, len(ev.Cands[a]), len(want.Cands[a]))
			}
			for j, c := range want.Cands[a] {
				if ev.Cands[a][j] != c {
					t.Fatalf("target %d: candidate %d/%d differs: %+v vs %+v",
						target, a, j, ev.Cands[a][j], c)
				}
			}
		}
	}
}

func TestRunTargetRejectsBadTarget(t *testing.T) {
	insts := NewInstancesWorkers(challenges(t, 8), 0)
	if _, _, err := RunTargetInstances(Imp9(), insts, -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, _, err := RunTargetInstances(Imp9(), insts, len(insts)); err == nil {
		t.Error("out-of-range target accepted")
	}
}

// TestPhasesPopulated checks the per-phase breakdown recorded on every
// evaluation, with or without an observability context attached.
func TestPhasesPopulated(t *testing.T) {
	ev := run(t, Imp9(), 8).Evals[0]
	p := ev.Phases
	if p.Sampling <= 0 || p.Level1 <= 0 {
		t.Errorf("sampling/level-1 phases not recorded: %+v", p)
	}
	if p.Level2 != 0 {
		t.Errorf("level-2 phase %v recorded for a single-level config", p.Level2)
	}
	if p.Scoring != ev.TestDur {
		t.Errorf("scoring phase %v != TestDur %v", p.Scoring, ev.TestDur)
	}
	if sum := p.Sampling + p.Level1 + p.Level2; sum > ev.TrainDur {
		t.Errorf("phase sum %v exceeds TrainDur %v", sum, ev.TrainDur)
	}
	if ev.PairsScored <= 0 {
		t.Error("PairsScored not recorded")
	}
}

// durTolerance bounds the bookkeeping gap between an Evaluation's stopwatch
// durations and the span durations around the same code.
const durTolerance = 50 * time.Millisecond

func within(a, b, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestReportAgreesWithEvaluation runs a single-target attack under an
// observability context and cross-checks the run report against the returned
// evaluation: the target span's train_ns/test_ns attributes must match
// TrainDur/TestDur exactly, the phase child spans must agree with the
// stopwatch phases within tolerance, and the metrics registry must have seen
// the run.
func TestReportAgreesWithEvaluation(t *testing.T) {
	chs := challenges(t, 8)
	o := obs.New(obs.Options{Command: "test"})
	cfg := Imp9()
	cfg.Obs = o
	ev, _, err := runFold(cfg, chs, 1)
	if err != nil {
		t.Fatal(err)
	}

	rep := o.BuildReport()
	sp := rep.Find("target")
	if sp == nil {
		t.Fatal("report has no target span")
	}
	if got := sp.Attrs["train_ns"]; got != int64(ev.TrainDur) {
		t.Errorf("report train_ns = %v, want %d", got, int64(ev.TrainDur))
	}
	if got := sp.Attrs["test_ns"]; got != int64(ev.TestDur) {
		t.Errorf("report test_ns = %v, want %d", got, int64(ev.TestDur))
	}
	if sp.Attrs["design"] != ev.Design {
		t.Errorf("report design attr %v, want %s", sp.Attrs["design"], ev.Design)
	}

	phaseDur := func(name string) time.Duration {
		c := sp.Find(name)
		if c == nil {
			t.Fatalf("report missing %s span", name)
		}
		return time.Duration(c.DurNS)
	}
	if d := phaseDur("sampling"); !within(d, ev.Phases.Sampling, durTolerance) {
		t.Errorf("sampling span %v vs phase %v", d, ev.Phases.Sampling)
	}
	if d := phaseDur("train-level1"); !within(d, ev.Phases.Level1, durTolerance) {
		t.Errorf("train-level1 span %v vs phase %v", d, ev.Phases.Level1)
	}
	if d := phaseDur("scoring"); !within(d, ev.TestDur, durTolerance) {
		t.Errorf("scoring span %v vs TestDur %v", d, ev.TestDur)
	}
	trainSpans := phaseDur("sampling") + phaseDur("train-level1")
	if !within(trainSpans, ev.TrainDur, durTolerance) {
		t.Errorf("phase span total %v vs TrainDur %v", trainSpans, ev.TrainDur)
	}

	m := o.Metrics()
	if n := m.Counter("attack.targets").Value(); n != 1 {
		t.Errorf("attack.targets = %d, want 1", n)
	}
	if n := m.Counter("attack.pairs.scored").Value(); n != ev.PairsScored {
		t.Errorf("attack.pairs.scored = %d, want %d", n, ev.PairsScored)
	}
	snap := m.Snapshot()
	hs, ok := snap.Histograms["attack.trainset.size"]
	if !ok || hs.Count != 1 || hs.Min <= 0 {
		t.Errorf("attack.trainset.size histogram = %+v", hs)
	}
}

// TestRunReportPerTarget checks the full leave-one-out run under a context:
// one target span per design, totals matching the evaluations.
func TestRunReportPerTarget(t *testing.T) {
	chs := challenges(t, 8)
	o := obs.New(obs.Options{Command: "test"})
	cfg := Imp11()
	cfg.Obs = o
	res, err := runLOO(cfg, chs)
	if err != nil {
		t.Fatal(err)
	}

	rep := o.BuildReport()
	root := rep.Find("attack.run")
	if root == nil {
		t.Fatal("report has no attack.run span")
	}
	type targetSpan struct {
		trainNS, testNS int64
	}
	// Targets run concurrently, so child spans appear in completion order;
	// match them to evaluations by design name (unique per suite).
	targets := map[string]targetSpan{}
	for _, c := range root.Children {
		if c.Name != "target" {
			continue
		}
		targets[c.Attrs["design"].(string)] = targetSpan{
			trainNS: c.Attrs["train_ns"].(int64),
			testNS:  c.Attrs["test_ns"].(int64),
		}
	}
	if len(targets) != len(res.Evals) {
		t.Fatalf("%d target spans for %d evaluations", len(targets), len(res.Evals))
	}
	for _, ev := range res.Evals {
		sp, ok := targets[ev.Design]
		if !ok {
			t.Errorf("no target span for design %s", ev.Design)
			continue
		}
		if sp.trainNS != int64(ev.TrainDur) {
			t.Errorf("%s: span train_ns %d, want %d", ev.Design, sp.trainNS, int64(ev.TrainDur))
		}
		if sp.testNS != int64(ev.TestDur) {
			t.Errorf("%s: span test_ns %d, want %d", ev.Design, sp.testNS, int64(ev.TestDur))
		}
	}
	if n := o.Metrics().Counter("attack.targets").Value(); n != int64(len(res.Evals)) {
		t.Errorf("attack.targets = %d, want %d", n, len(res.Evals))
	}
}
