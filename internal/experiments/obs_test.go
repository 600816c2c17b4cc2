package experiments

import (
	"bytes"
	"testing"

	"repro/internal/attack"
	"repro/internal/obs"
)

// TestSuiteMetrics attaches an observability context to a suite and checks
// that cache outcomes and training-set sizes land in the metrics registry.
// The suite reuses the shared fixture's generated designs but gets fresh
// caches, so the hit/miss sequence is deterministic.
func TestSuiteMetrics(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	s := freshSuite(t)
	s.Obs = o

	if _, err := s.RunNoisy(attack.Imp9(), 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunNoisy(attack.Imp9(), 8, 0); err != nil {
		t.Fatal(err)
	}

	m := o.Metrics()
	if hits := m.Counter("suite.cache.hit").Value(); hits < 1 {
		t.Errorf("suite.cache.hit = %d, want >= 1 (second Run must hit)", hits)
	}
	// First Run misses both the run cache and the challenge cache.
	if misses := m.Counter("suite.cache.miss").Value(); misses < 2 {
		t.Errorf("suite.cache.miss = %d, want >= 2", misses)
	}

	// The leave-one-out run samples one training set per target design.
	snap := m.Snapshot()
	hs, ok := snap.Histograms["attack.trainset.size"]
	if !ok {
		t.Fatal("attack.trainset.size histogram not recorded")
	}
	if hs.Count < int64(len(s.Designs)) {
		t.Errorf("trainset histogram count = %d, want >= %d", hs.Count, len(s.Designs))
	}
	if hs.Min <= 0 {
		t.Errorf("trainset histogram min = %g, want > 0", hs.Min)
	}
	if n := m.Counter("attack.targets").Value(); n != int64(len(s.Designs)) {
		t.Errorf("attack.targets = %d, want %d", n, len(s.Designs))
	}
}

// TestSuiteInstanceCacheHits sweeps two configurations at one layer and
// checks that the second run reuses the prepared instances: the
// (layer, noise) instance cache must record at least one hit.
func TestSuiteInstanceCacheHits(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	s := freshSuite(t)
	s.Obs = o

	if _, err := s.RunNoisy(attack.Imp9(), 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunNoisy(attack.ML9(), 8, 0); err != nil {
		t.Fatal(err)
	}

	ic := o.Metrics().Cache("suite.instances")
	if ic.Misses() < 1 {
		t.Errorf("suite.instances.miss = %d, want >= 1 (first config must build)", ic.Misses())
	}
	if ic.Hits() < 1 {
		t.Errorf("suite.instances.hit = %d, want >= 1 (second config must reuse instances)", ic.Hits())
	}
}

// TestSuiteRunExperimentObs checks the per-experiment span and counter.
func TestSuiteRunExperimentObs(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	s := freshSuite(t)
	s.Obs = o

	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunExperiment(s, e, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("experiment produced no output")
	}
	if n := o.Metrics().Counter("experiments.run").Value(); n != 1 {
		t.Errorf("experiments.run = %d, want 1", n)
	}
	sp := o.BuildReport().Find("experiment")
	if sp == nil {
		t.Fatal("report has no experiment span")
	}
	if sp.Attrs["id"] != "fig4" {
		t.Errorf("experiment span id = %v", sp.Attrs["id"])
	}
}

// TestSuiteObsNilSafe pins the zero-overhead contract: a suite without a
// context must run exactly as before.
func TestSuiteObsNilSafe(t *testing.T) {
	s := freshSuite(t)
	if s.Obs != nil {
		t.Fatal("fresh suite must not have a context")
	}
	if _, err := s.Challenges(8, 0); err != nil {
		t.Fatal(err)
	}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if err := RunExperiment(s, e, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
