package experiments

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/obs"
)

// TestSuiteArtifactCacheHits pins the train-once/score-many property of the
// suite's artifact store: sweeping a one-level configuration and then its
// two-level variant at the same layer trains each fold's level-1 model
// exactly once — the second sweep's level-1 stages are all cache hits and
// only the level-2 stages train.
func TestSuiteArtifactCacheHits(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	s := freshSuite(t)
	s.Obs = o

	if _, err := s.RunNoisy(attack.Imp11(), 8, 0); err != nil {
		t.Fatal(err)
	}
	two := attack.WithTwoLevel(attack.Imp11())
	two.Name += "-2L"
	if _, err := s.RunNoisy(two, 8, 0); err != nil {
		t.Fatal(err)
	}

	n := int64(len(s.Designs))
	ac := o.Metrics().Cache("model.artifacts")
	// First sweep: one level-1 miss per fold. Second sweep: one level-1 hit
	// plus one level-2 miss per fold.
	if ac.Hits() != n {
		t.Errorf("model.artifacts hits = %d, want %d (two-level sweep must reuse level-1 models)", ac.Hits(), n)
	}
	if ac.Misses() != 2*n {
		t.Errorf("model.artifacts misses = %d, want %d", ac.Misses(), 2*n)
	}

	// "Trained exactly once" shows up as one sampled training set per fold:
	// the two-level sweep reuses the cached level-1 models and never
	// re-samples.
	hs, ok := o.Metrics().Snapshot().Histograms["attack.trainset.size"]
	if !ok {
		t.Fatal("attack.trainset.size histogram not recorded")
	}
	if hs.Count != int64(n) {
		t.Errorf("trainset samples drawn %d times, want exactly once per fold (%d)", hs.Count, n)
	}
}
