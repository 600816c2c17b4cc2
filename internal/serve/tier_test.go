package serve

import (
	"net/http"
	"testing"

	"repro/internal/layout"
)

// TestServeTierNormalize covers the tier field's submission-time handling:
// defaults fill in, unknown tiers are rejected, and design validation
// happens against the selected tier's suite.
func TestServeTierNormalize(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})

	norm, err := s.normalize(JobSpec{Kind: KindAttack, Design: "sb1",
		Config: &ConfigSpec{Preset: "ML-9"}})
	if err != nil {
		t.Fatal(err)
	}
	if norm.Tier != layout.TierStandard {
		t.Errorf("empty tier normalized to %q, want %q", norm.Tier, layout.TierStandard)
	}

	if _, err := s.normalize(JobSpec{Kind: KindAttack, Design: "sb1", Tier: "huge",
		Config: &ConfigSpec{Preset: "ML-9"}}); err == nil {
		t.Error("unknown tier accepted")
	}

	// The industrial tier has sbx* designs, not sb*.
	if _, err := s.normalize(JobSpec{Kind: KindAttack, Design: "sb1", Tier: layout.TierIndustrial,
		Config: &ConfigSpec{Preset: "ML-9"}}); err == nil {
		t.Error("standard design accepted under the industrial tier")
	}
	norm, err = s.normalize(JobSpec{Kind: KindAttack, Design: "sbx1", Tier: layout.TierIndustrial,
		Config: &ConfigSpec{Preset: "ML-9"}})
	if err != nil {
		t.Fatal(err)
	}
	if norm.Tier != layout.TierIndustrial || norm.Design != "sbx1" {
		t.Errorf("industrial normalize = %+v", norm)
	}
}

// TestServeDefaultTierOption checks the server-level default: a server
// started on the industrial tier routes tier-less jobs there.
func TestServeDefaultTierOption(t *testing.T) {
	if _, err := New(Options{Pool: 1, runner: stubRunner, DefaultTier: "huge"}); err == nil {
		t.Error("server accepted an unknown default tier")
	}
	if _, err := New(Options{Pool: 1, runner: stubRunner, DefaultScale: maxScale * 2}); err == nil {
		t.Error("server accepted a default scale above the ceiling")
	}
	s := newTestServer(t, Options{Pool: 1, runner: stubRunner,
		DefaultTier: layout.TierIndustrial, DefaultScale: testScale, DefaultSeed: testSeed})
	norm, err := s.normalize(JobSpec{Kind: KindAttack, Design: "sbx10",
		Config: &ConfigSpec{Preset: "ML-9"}})
	if err != nil {
		t.Fatal(err)
	}
	if norm.Tier != layout.TierIndustrial {
		t.Errorf("tier-less job normalized to %q, want the server default", norm.Tier)
	}
}

// TestHTTPDesignsTier exercises GET /designs with and without the tier
// query: each tier lists its own names, unknown tiers get a 400.
func TestHTTPDesignsTier(t *testing.T) {
	_, ts := httpFixture(t, Options{Pool: 1, runner: stubRunner})

	var names []string
	resp := doJSON(t, "GET", ts.URL+"/designs", "", &names)
	if resp.StatusCode != http.StatusOK || len(names) != 5 || names[0] != "sb1" {
		t.Errorf("GET /designs = %d %v, want 200 and the five sb* names", resp.StatusCode, names)
	}

	names = nil
	resp = doJSON(t, "GET", ts.URL+"/designs?tier=industrial", "", &names)
	want := []string{"sbx1", "sbx10", "sbx12"}
	if resp.StatusCode != http.StatusOK || len(names) != len(want) {
		t.Fatalf("GET /designs?tier=industrial = %d %v, want 200 and %v", resp.StatusCode, names, want)
	}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("industrial design %d = %q, want %q", i, n, want[i])
		}
	}

	var env apiError
	resp = doJSON(t, "GET", ts.URL+"/designs?tier=huge", "", &env)
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "invalid_spec" {
		t.Errorf("GET /designs?tier=huge = %d code %q, want 400 invalid_spec", resp.StatusCode, env.Error.Code)
	}
}

// TestServeConfigSpecMemoryKnobs checks the wire form of the industrial
// memory bounds reaches the engine configuration.
func TestServeConfigSpecMemoryKnobs(t *testing.T) {
	cs := ConfigSpec{Preset: "Imp-11", MaxLoCCount: 256, ShardVpins: 2048}
	cfg, err := cs.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxLoCCount != 256 || cfg.ShardVpins != 2048 {
		t.Errorf("resolved config knobs = %d/%d, want 256/2048", cfg.MaxLoCCount, cfg.ShardVpins)
	}
	if _, err := (ConfigSpec{Preset: "Imp-11", MaxLoCCount: -1}).resolve(); err == nil {
		t.Error("negative max_loc_count accepted")
	}
	if _, err := (ConfigSpec{Preset: "Imp-11", ShardVpins: -1}).resolve(); err == nil {
		t.Error("negative shard_vpins accepted")
	}
}
