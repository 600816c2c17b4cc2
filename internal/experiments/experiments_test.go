package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/layout"
)

// One tiny suite shared by all experiment tests; experiment runs are cached
// inside it, so later tests reuse earlier work.
var (
	suiteOnce sync.Once
	suiteErr  error
	suiteVal  *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = NewSuiteTier(nil, layout.TierStandard, 0.12, 3, 0)
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestNewSuite(t *testing.T) {
	s := testSuite(t)
	if len(s.Designs) != 5 {
		t.Fatalf("suite has %d designs, want 5", len(s.Designs))
	}
}

// TestSuiteRunCacheKeysOnOptions pins the run caches to the coordinates
// sweep units key on: a config that shares a display name with a cached
// run but differs in options is a different run, not a cache hit, and the
// shard planner keeps both.
func TestSuiteRunCacheKeysOnOptions(t *testing.T) {
	s := NewSuiteFromDesigns(testSuite(t).Designs, 0.12, 3)
	base, err := s.RunNoisy(attack.Imp9(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	small := attack.Imp9()
	small.NumTrees = 3
	got, err := s.RunNoisy(small, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == base {
		t.Fatal("Imp-9 with 3 trees was served Imp-9's cached result")
	}
	want, err := NewSuiteFromDesigns(s.Designs, 0.12, 3).RunNoisy(small, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Evals {
		if got.Evals[i].Digest() != want.Evals[i].Digest() {
			t.Errorf("fold %d: digest differs from a fresh suite's run", i)
		}
	}
	plan := Plan([]Experiment{{Runs: []RunSpec{{Config: attack.Imp9(), Layer: 8}, {Config: small, Layer: 8}}}})
	if len(plan) != 2 {
		t.Errorf("plan has %d runs, want 2: same-name configs were deduplicated", len(plan))
	}
}

func TestChallengesCached(t *testing.T) {
	s := testSuite(t)
	a, err := s.Challenges(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Challenges(8)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] || a[0] != b[0] {
		t.Error("challenges not cached")
	}
}

func TestRunCached(t *testing.T) {
	s := testSuite(t)
	a, err := s.RunNoisy(attack.Imp9(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunNoisy(attack.Imp9(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("attack runs not cached")
	}
}

func TestNoisyChallenges(t *testing.T) {
	s := testSuite(t)
	clean, err := s.Challenges(6)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := s.NoisyChallenges(6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(noisy) != len(clean) {
		t.Fatal("noisy suite size differs")
	}
	moved := 0
	for i := range clean[0].VPins {
		if noisy[0].VPins[i].Pos != clean[0].VPins[i].Pos {
			moved++
		}
	}
	if moved == 0 {
		t.Error("noise did not move any v-pin")
	}
	same, err := s.NoisyChallenges(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same[0] != clean[0] {
		t.Error("sd=0 must return the clean challenges")
	}
}

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) failed: %v", e.ID, err)
		}
	}
	if _, err := ByID("table99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestAllExperimentsComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
		if e.Title == "" || e.render == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig7", "fig8", "fig9", "fig10"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

// TestExperimentsReadExactlyTheirRuns holds every registered experiment to
// its declaration: it renders from the results of its declared runs (and
// proximity attacks) alone, starting none through the suite it renders
// with, and it reads every run it declares, or that run's proximity attack
// where it declares one.
func TestExperimentsReadExactlyTheirRuns(t *testing.T) {
	s := testSuite(t)
	view := NewSuiteFromDesigns(s.Designs, s.Scale, s.Seed)
	for _, e := range AllWithExtensions() {
		r, err := s.results(e)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := e.render(view, r, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(view.runs) != 0 || len(view.pa) != 0 {
			t.Errorf("%s started %d runs and %d proximity attacks outside its declaration",
				e.ID, len(view.runs), len(view.pa))
		}
		for _, spec := range e.Runs {
			key, what := runKey(spec.Config, spec.Layer, spec.Noise), "run"
			if spec.PA {
				key, what = "pa "+key, "proximity attack"
			}
			if !r.read[key] {
				t.Errorf("%s declares the %s of %s at layer %d, noise %g, but never reads it",
					e.ID, what, spec.Config.Name, spec.Layer, spec.Noise)
			}
		}
	}
}

// TestUndeclaredReadPanics: a renderer reading a run, or a proximity
// attack, that its experiment does not declare fails loudly, naming the
// experiment.
func TestUndeclaredReadPanics(t *testing.T) {
	s := testSuite(t)
	reads := map[string]func(Results){
		"run":       func(r Results) { r.Result(attack.ML9(), 8, 0) },
		"proximity": func(r Results) { r.PA(attack.Imp9(), 8, 0) },
	}
	for name, read := range reads {
		e := Experiment{
			ID:   "undeclared-" + name,
			Runs: []RunSpec{{Config: attack.Imp9(), Layer: 8}},
			render: func(_ *Suite, r Results, _ io.Writer) error {
				read(r)
				return nil
			},
		}
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, e.ID) {
					t.Errorf("%s: recovered %q, want a panic naming the experiment", name, msg)
				}
			}()
			e.Run(s, io.Discard)
		}()
	}
}

// runExperiment executes one experiment on the shared suite and returns its
// output.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(testSuite(t), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestTableIOutput(t *testing.T) {
	out := runExperiment(t, "table1")
	for _, want := range []string{"split layer 8", "split layer 6", "split layer 4",
		"sb1", "sb12", "Avg", "[5]|LoC|", "Imp-11"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTableIIOutput(t *testing.T) {
	out := runExperiment(t, "table2")
	for _, want := range []string{"RandomTree", "REPTree", "Runtime", "split layer 8", "split layer 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestTableIIIOutput(t *testing.T) {
	out := runExperiment(t, "table3")
	for _, want := range []string{"2-level", "noPrune", "split layer 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestTableIVOutput(t *testing.T) {
	out := runExperiment(t, "table4")
	for _, want := range []string{"ML-9", "Imp-11Y", "frac@95%", "acc@10.00%", "runtime"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q", want)
		}
	}
	// Y configs must appear only in the layer-8 block.
	blocks := strings.Split(out, "Table IV - split layer ")
	for _, b := range blocks[2:] { // layers 6 and 4
		if strings.Contains(b, "Y\t") || strings.Contains(b, "-9Y") {
			t.Error("Y configuration leaked into a lower-layer block")
		}
	}
}

func TestTableVOutput(t *testing.T) {
	out := runExperiment(t, "table5")
	for _, want := range []string{"[9]NN", "[5]PA", "-fix", "-val", "ValTime"} {
		if !strings.Contains(out, want) {
			t.Errorf("table5 output missing %q", want)
		}
	}
}

func TestTableVIOutput(t *testing.T) {
	out := runExperiment(t, "table6")
	for _, want := range []string{"no-noise", "SD=1%", "SD=2%", "split layer 6", "split layer 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table6 output missing %q", want)
		}
	}
}

func TestFig4Output(t *testing.T) {
	out := runExperiment(t, "fig4")
	for _, want := range []string{"CDF", "p90%", "sb18"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestFig7Output(t *testing.T) {
	out := runExperiment(t, "fig7")
	for _, want := range []string{"InfoGain", "|Corr|", "Fisher", "ManhattanVpin", "RoutingCongestion"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q", want)
		}
	}
}

func TestFig8Output(t *testing.T) {
	out := runExperiment(t, "fig8")
	for _, want := range []string{"match mean", "non-match", "DiffCellArea"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 output missing %q", want)
		}
	}
}

func TestFig9Output(t *testing.T) {
	out := runExperiment(t, "fig9")
	for _, want := range []string{"LoCfrac", "Prior work [5]", "Imp-7", "split layer 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 output missing %q", want)
		}
	}
}

func TestFig10Output(t *testing.T) {
	out := runExperiment(t, "fig10")
	for _, want := range []string{"no-noise", "SD=2%", "split layer 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 output missing %q", want)
		}
	}
}

func TestNewSuiteFromDesignsSharesLayouts(t *testing.T) {
	s := testSuite(t)
	fresh := NewSuiteFromDesigns(s.Designs, s.Scale, s.Seed)
	if len(fresh.runs) != 0 {
		t.Error("fresh suite must have empty caches")
	}
	if &fresh.Designs[0] == nil || fresh.Designs[0] != s.Designs[0] {
		t.Error("fresh suite must share design pointers")
	}
}

func TestExtensionExperiments(t *testing.T) {
	out := runExperiment(t, "ext-classifiers")
	for _, want := range []string{"logistic", "RandomForest", "pair AUC"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-classifiers output missing %q", want)
		}
	}
	out = runExperiment(t, "ext-defense")
	for _, want := range []string{"perturb x2", "lift", "wirelength overhead", "none"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-defense output missing %q", want)
		}
	}
}

func TestAllWithExtensions(t *testing.T) {
	base := len(All())
	ext := len(AllWithExtensions())
	if ext != base+4 {
		t.Errorf("AllWithExtensions has %d entries, want %d", ext, base+4)
	}
	if _, err := ByID("ext-defense"); err != nil {
		t.Errorf("ext-defense not registered: %v", err)
	}
	if _, err := ByID("ext-dl"); err != nil {
		t.Errorf("ext-dl not registered: %v", err)
	}
}

func TestExtRecovery(t *testing.T) {
	out := runExperiment(t, "ext-recovery")
	for _, want := range []string{"structural", "functional", "observation pins", "Avg"} {
		if !strings.Contains(out, want) {
			t.Errorf("ext-recovery output missing %q", want)
		}
	}
}
