package layout

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// saved returns layout.Save's bytes for every design.
func saved(t testing.TB, designs []*Design) [][]byte {
	t.Helper()
	out := make([][]byte, len(designs))
	for i, d := range designs {
		var buf bytes.Buffer
		if err := Save(&buf, d); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestGenerateSuiteWorkersIdentical generates each tier's suite on one
// worker and on four, and compares the designs in the layout file format.
func TestGenerateSuiteWorkersIdentical(t *testing.T) {
	for _, cfg := range []SuiteConfig{
		{Tier: TierStandard, Scale: 0.2, Seed: 5},
		{Tier: TierIndustrial, Scale: 0.02, Seed: 3},
	} {
		var runs [2][][]byte
		for i, workers := range []int{1, 4} {
			cfg.Workers = workers
			designs, err := GenerateSuite(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = saved(t, designs)
		}
		for i := range runs[0] {
			if !bytes.Equal(runs[0][i], runs[1][i]) {
				t.Errorf("%s suite: design %d differs between 1 and 4 workers", cfg.Tier, i)
			}
		}
	}
}

// TestGenerateSuiteStageSpans checks that every design span of a traced
// suite holds one span per generation stage, in pipeline order.
func TestGenerateSuiteStageSpans(t *testing.T) {
	o := obs.New(obs.Options{Command: "layout-test"})
	designs, err := GenerateSuiteObs(o, SuiteConfig{Scale: 0.05, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	suite := o.BuildReport().Find("layout.suite")
	if suite == nil || len(suite.Children) != len(designs) {
		t.Fatalf("want a layout.suite span with %d design spans, got %+v", len(designs), suite)
	}
	want := []string{"netlist.cells", "place.place", "netlist.nets", "route.route"}
	for _, d := range suite.Children {
		if d.Name != "design" || len(d.Children) != len(want) {
			t.Fatalf("span %s (%v) has %d children, want the %d stages %v",
				d.Name, d.Attrs["name"], len(d.Children), len(want), want)
		}
		for i, st := range d.Children {
			if st.Name != want[i] {
				t.Errorf("design %v: stage span %d is %s, want %s", d.Attrs["name"], i, st.Name, want[i])
			}
		}
	}
}

// suiteSink keeps the suites BenchmarkGenerateSuite generates.
var suiteSink []*Design

// BenchmarkGenerateSuite generates the standard suite at scale 1.0, seed
// 1 (the suite of the full-scale golden folds) on one worker.
func BenchmarkGenerateSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if suiteSink, err = GenerateSuite(SuiteConfig{Scale: 1, Seed: 1, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
