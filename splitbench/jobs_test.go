package main

import (
	"reflect"
	"testing"

	"repro/internal/serve"
)

func TestBuildJobsDeterministic(t *testing.T) {
	a, b := buildJobs(7), buildJobs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different job lists")
	}
	if reflect.DeepEqual(keys(a), keys(buildJobs(8))) {
		t.Error("seeds 7 and 8 built the same job order")
	}
}

func TestBuildJobsShape(t *testing.T) {
	items := buildJobs(1)
	space := mixSpace()
	if len(items) != 2*len(space)+1 {
		t.Fatalf("%d items, want %d", len(items), 2*len(space)+1)
	}
	seen := map[string]int{}
	sweeps := 0
	for i, it := range items {
		if it.sweep {
			sweeps++
			if it.spec.Kind != serve.KindSweep || i < len(items)/4 || i > 3*len(items)/4 {
				t.Errorf("sweep at %d of %d: %+v", i, len(items), it.spec)
			}
			continue
		}
		if it.first != (seen[it.key] == 0) {
			t.Errorf("item %d: first=%v after %d occurrences", i, it.first, seen[it.key])
		}
		seen[it.key]++
	}
	if sweeps != 1 || len(seen) != len(space) {
		t.Errorf("%d sweeps and %d distinct specs, want 1 and %d", sweeps, len(seen), len(space))
	}
	for k, n := range seen {
		if n != 2 {
			t.Errorf("spec %s appears %d times, want 2", k, n)
		}
	}
}

func TestDirectConfigMatchesMix(t *testing.T) {
	for _, cs := range mixConfigs() {
		cfg, err := directConfig(cs)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Name != cs.Preset || (cs.TwoLevel != nil) != cfg.TwoLevel || cfg.Family != cs.Learner {
			t.Errorf("%+v resolved to %s two_level=%v family=%q", cs, cfg.Name, cfg.TwoLevel, cfg.Family)
		}
	}
}

func keys(items []jobItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.key
	}
	return out
}
