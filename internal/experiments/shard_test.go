package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/attack"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// freshSuite wraps the shared test designs in a new Suite with empty caches,
// so shard/merge tests measure real checkpoint traffic instead of the shared
// suite's warm run cache.
func freshSuite(t *testing.T) *Suite {
	t.Helper()
	return NewSuiteFromDesigns(testSuite(t).Designs, 0.12, 3)
}

func fig10Experiment(t *testing.T) Experiment {
	t.Helper()
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// renderFig10 runs Fig. 10 on the suite and returns the exact output bytes.
func renderFig10(t *testing.T, s *Suite) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fig10Experiment(t).Run(s, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fig10Digests collects the evaluation digests of every run Fig. 10 consumed,
// keyed by (layer, noise, fold).
func fig10Digests(t *testing.T, s *Suite) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, layer := range []int{6, 4} {
		for _, sd := range []float64{0, 0.01, 0.02} {
			res, err := s.RunNoisy(attack.Imp11(), layer, sd)
			if err != nil {
				t.Fatal(err)
			}
			for fold, ev := range res.Evals {
				out[ev.Digest()] = s.Designs[fold].Name
			}
		}
	}
	return out
}

// TestShardMergeDeterminism is the end-to-end contract of the sweep layer:
// Fig. 10 rendered from three shards' merged partials is byte-identical —
// and every evaluation digest-identical — to a single-process run.
func TestShardMergeDeterminism(t *testing.T) {
	fig10 := fig10Experiment(t)

	// Baseline: one process, no checkpoint.
	baseline := freshSuite(t)
	wantBytes := renderFig10(t, baseline)
	wantDigests := fig10Digests(t, baseline)

	// Three shard workers sharing one checkpoint directory.
	ckDir := t.TempDir()
	var planned, owned, computed int
	for i := 1; i <= 3; i++ {
		s := freshSuite(t)
		ck, err := sweep.Open(ckDir)
		if err != nil {
			t.Fatal(err)
		}
		s.Checkpoint = ck
		stats, err := s.RunPlan(Plan([]Experiment{fig10}), sweep.Shard{Index: i, Count: 3})
		if err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
		planned = stats.Planned
		owned += stats.Owned
		computed += stats.Done
		if stats.Skipped != 0 || stats.Recomputed != 0 {
			t.Errorf("shard %d/3 on a fresh checkpoint: %s (want no loads)", i, stats)
		}
	}
	if planned == 0 {
		t.Fatal("fig10 plan is empty")
	}
	if owned != planned || computed != planned {
		t.Fatalf("3 shards owned %d and computed %d of %d planned units", owned, computed, planned)
	}

	// Merge: a fresh process with the checkpoint loads every fold and
	// renders; nothing may be recomputed.
	merged := freshSuite(t)
	ck, err := sweep.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	merged.Checkpoint = ck
	merged.Obs = obs.New(obs.Options{Command: "test"})
	gotBytes := renderFig10(t, merged)
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("merged Fig10 output differs from the single-process run:\n--- merged ---\n%s\n--- single ---\n%s",
			gotBytes, wantBytes)
	}
	if done := merged.Obs.Metrics().Counter("sweep.units.done").Value(); done != 0 {
		t.Errorf("merge recomputed %d units; every fold should load from the checkpoint", done)
	}
	if skipped := merged.Obs.Metrics().Counter("sweep.units.skipped").Value(); skipped != int64(planned) {
		t.Errorf("merge loaded %d units, want all %d", skipped, planned)
	}
	gotDigests := fig10Digests(t, merged)
	if len(gotDigests) != len(wantDigests) {
		t.Fatalf("merged run has %d distinct digests, baseline %d", len(gotDigests), len(wantDigests))
	}
	for d := range wantDigests {
		if _, ok := gotDigests[d]; !ok {
			t.Errorf("baseline digest %s (design %s) missing from the merged run", d, wantDigests[d])
		}
	}
}

// TestShardKillResume corrupts one partial and deletes another — the
// checkpoint shapes a killed shard leaves behind — and verifies a resumed
// run recomputes exactly those units and still merges bit-identically.
func TestShardKillResume(t *testing.T) {
	fig10 := fig10Experiment(t)
	ckDir := t.TempDir()

	first := freshSuite(t)
	ck, err := sweep.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	first.Checkpoint = ck
	stats, err := first.RunPlan(Plan([]Experiment{fig10}), sweep.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := renderFig10(t, first)

	// Simulate the kill: one unit file torn mid-write, one never written.
	files, err := filepath.Glob(filepath.Join(ckDir, "*.unit"))
	if err != nil || len(files) < 2 {
		t.Fatalf("checkpoint has %d unit files (%v), want >= 2", len(files), err)
	}
	sort.Strings(files)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(files[1]); err != nil {
		t.Fatal(err)
	}

	// Resume: the zero shard owns every unit; all but the damaged two load.
	resumed := freshSuite(t)
	ck2, err := sweep.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Checkpoint = ck2
	rstats, err := resumed.RunPlan(Plan([]Experiment{fig10}), sweep.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Planned != stats.Planned || rstats.Owned != stats.Planned {
		t.Fatalf("resume plan %s does not cover the %d original units", rstats, stats.Planned)
	}
	if rstats.Done != 2 || rstats.Recomputed != 1 || rstats.Skipped != stats.Planned-2 {
		t.Errorf("resume stats %s; want computed=2 recomputed=1 loaded=%d", rstats, stats.Planned-2)
	}

	merged := freshSuite(t)
	ck3, err := sweep.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	merged.Checkpoint = ck3
	if got := renderFig10(t, merged); !bytes.Equal(got, wantBytes) {
		t.Error("Fig10 after kill-and-resume differs from the uninterrupted run")
	}
}

// TestSharedModelStoreDedup: two processes sharing an on-disk model store
// train each unique fold spec exactly once — the second run's folds are all
// disk hits, recording zero "model.artifacts" misses.
func TestSharedModelStoreDedup(t *testing.T) {
	modelDir := t.TempDir()
	plan := []RunSpec{{Config: attack.Imp9(), Layer: 8}}

	run := func(ckDir string) *obs.Context {
		s := freshSuite(t)
		o := obs.New(obs.Options{Command: "test"})
		s.Obs = o
		s.SetModelStore(model.NewStore(0, modelDir))
		ck, err := sweep.Open(ckDir)
		if err != nil {
			t.Fatal(err)
		}
		s.Checkpoint = ck
		if _, err := s.RunPlan(plan, sweep.Shard{}); err != nil {
			t.Fatal(err)
		}
		return o
	}

	// Separate checkpoint dirs force the second run to recompute every fold
	// instead of loading the first run's partials: only the shared model
	// store can dedup the training work.
	oA := run(t.TempDir())
	oB := run(t.TempDir())

	folds := int64(len(testSuite(t).Designs))
	ac := oA.Metrics().Cache("model.artifacts")
	bc := oB.Metrics().Cache("model.artifacts")
	if ac.Misses() != folds {
		t.Errorf("first run recorded %d artifact misses, want %d (one per unique fold spec)", ac.Misses(), folds)
	}
	if bc.Misses() != 0 {
		t.Errorf("second run recorded %d artifact misses, want 0 (all folds served from the shared disk store)", bc.Misses())
	}
	if hits := oB.Metrics().Counter("model.artifacts.disk.hit").Value(); hits != folds {
		t.Errorf("second run recorded %d disk hits, want %d", hits, folds)
	}
}

// TestMLPFoldsCheckpointAndResume: MLP-family folds are sweep units like any
// other — a second process pointed at the same checkpoint directory loads
// every fold from disk instead of retraining, and reproduces the digests.
func TestMLPFoldsCheckpointAndResume(t *testing.T) {
	ckDir := t.TempDir()
	cfg := attack.DLMLP()
	cfg.MLPEpochs = 3
	plan := []RunSpec{{Config: cfg, Layer: 8}}

	first := freshSuite(t)
	ck, err := sweep.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	first.Checkpoint = ck
	stats, err := first.RunPlan(plan, sweep.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Planned == 0 || stats.Done != stats.Planned {
		t.Fatalf("first run %s; want every planned unit computed", stats)
	}
	res, err := first.RunNoisy(cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(res.Evals))
	for fold, ev := range res.Evals {
		want[fold] = ev.Digest()
	}

	resumed := freshSuite(t)
	resumed.Obs = obs.New(obs.Options{Command: "test"})
	ck2, err := sweep.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Checkpoint = ck2
	rstats, err := resumed.RunPlan(plan, sweep.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Skipped != stats.Planned || rstats.Done != 0 {
		t.Errorf("resume stats %s; want all %d units loaded, none computed", rstats, stats.Planned)
	}
	if done := resumed.Obs.Metrics().Counter("sweep.units.done").Value(); done != 0 {
		t.Errorf("resume retrained %d MLP folds; want 0", done)
	}
	rres, err := resumed.RunNoisy(cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for fold, ev := range rres.Evals {
		if ev.Digest() != want[fold] {
			t.Errorf("fold %d digest %s after resume, want %s", fold, ev.Digest(), want[fold])
		}
	}
}
