package sweep

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/split"
)

func testUnit() Unit {
	return Unit{
		Prov:   Provenance{Tier: "standard", Scale: 0.12, Seed: 3},
		Config: "Imp-11",
		Spec:   "abc123",
		Layer:  6,
		Noise:  0.01,
		Fold:   2,
		Design: "sb10",
	}
}

// syntheticEval builds an evaluation exercising every digest-relevant field,
// including float values (0.1, NaN-free but non-representable in decimal
// shorthand) that would expose a lossy codec.
func syntheticEval() *attack.Evaluation {
	return &attack.Evaluation{
		ConfigName: "Imp-11",
		Design:     "sb10",
		SplitLayer: 6,
		N:          3,
		Cands: [][]attack.Candidate{
			{{Other: 1, P: 0.875, D: 12.5}, {Other: 2, P: float32(0.1), D: float32(math.Pi)}},
			{{Other: 0, P: 0.875, D: 12.5}},
			{},
		},
		TruthP:      []float32{0.875, 0.875, -1},
		Truth:       []int32{1, 0, 2},
		Subset:      []int{0, 1, 2},
		TrainDur:    123 * time.Millisecond,
		TestDur:     45 * time.Millisecond,
		PairsScored: 99,
		Retained:    3,
	}
}

func TestUnitKeyDeterministicAndDistinct(t *testing.T) {
	u := testUnit()
	k1, k2 := u.Key(), u.Key()
	if k1 != k2 {
		t.Fatalf("Key not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 32 {
		t.Fatalf("Key length = %d, want 32 hex chars", len(k1))
	}
	// Every coordinate must change the key.
	variants := []Unit{u, u, u, u, u, u, u, u}
	variants[1].Prov.Tier = "industrial"
	variants[2].Prov.Scale = 0.13
	variants[3].Prov.Seed = 4
	variants[4].Config = "Imp-9"
	variants[5].Spec = "def456"
	variants[6].Layer = 8
	variants[7].Noise = 0.02
	more := []Unit{u, u}
	more[0].Fold = 3
	more[1].Design = "sb12"
	variants = append(variants, more...)
	seen := map[string]int{}
	for i, v := range variants {
		k := v.Key()
		if j, dup := seen[k]; dup {
			t.Errorf("variants %d and %d share key %s", j, i, k)
		}
		seen[k] = i
	}
	if len(seen) != len(variants) {
		t.Errorf("expected %d distinct keys, got %d", len(variants), len(seen))
	}
}

func TestShardPartitionCoversExactlyOnce(t *testing.T) {
	shards := []Shard{{1, 3}, {2, 3}, {3, 3}}
	u := testUnit()
	for fold := 0; fold < 20; fold++ {
		u.Fold = fold
		key := u.Key()
		owners := 0
		for _, sh := range shards {
			if sh.Owns(key) {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("fold %d key %s owned by %d shards, want exactly 1", fold, key, owners)
		}
		if !(Shard{}).Owns(key) {
			t.Errorf("zero shard must own every key")
		}
		if !(Shard{1, 1}).Owns(key) {
			t.Errorf("1/1 shard must own every key")
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":    {},
		"1/3": {1, 3},
		"3/3": {3, 3},
		"1/1": {1, 1},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"0/3", "4/3", "1/0", "-1/3", "x/3", "1/x", "13", "1/3/5"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) succeeded, want error", in)
		}
	}
}

func TestCheckpointRoundTripPreservesDigest(t *testing.T) {
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	u := testUnit()
	ev := syntheticEval()
	want := ev.Digest()
	if err := ck.Save(&UnitResult{Unit: u, RadiusNorm: 0.0625, Eval: ev}); err != nil {
		t.Fatal(err)
	}
	res, discarded, err := ck.Load(u)
	if err != nil || discarded {
		t.Fatalf("Load = %v, discarded=%t", err, discarded)
	}
	if res == nil {
		t.Fatal("Load returned nil for a saved unit")
	}
	if res.RadiusNorm != 0.0625 {
		t.Errorf("RadiusNorm = %v, want 0.0625", res.RadiusNorm)
	}
	if got := res.Eval.Digest(); got != want {
		t.Errorf("digest changed across the checkpoint round trip:\n  saved  %s\n  loaded %s", want, got)
	}
	if res.Unit != u {
		t.Errorf("embedded unit = %+v, want %+v", res.Unit, u)
	}
}

func TestCheckpointLoadMissing(t *testing.T) {
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, discarded, err := ck.Load(testUnit())
	if res != nil || discarded || err != nil {
		t.Fatalf("Load of missing unit = %v, %t, %v; want nil, false, nil", res, discarded, err)
	}
}

// corrupt writes a saved unit file back with the given mutation applied.
func corrupt(t *testing.T, ck *Checkpoint, u Unit, mutate func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(ck.Dir(), u.Key()+".unit")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckpointCorruptionDiscarded(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"nearly-empty", func(b []byte) []byte { return b[:3] }},
		{"bit-flip", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"bad-magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}},
		{"bad-version", func(b []byte) []byte {
			b[len(unitMagic)] = 0xFF
			return b
		}},
		{"garbage", func([]byte) []byte { return []byte("not a unit file at all") }},
		{"partial-write", func(b []byte) []byte { return b[:len(b)-2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			u := testUnit()
			if err := ck.Save(&UnitResult{Unit: u, Eval: syntheticEval()}); err != nil {
				t.Fatal(err)
			}
			path := corrupt(t, ck, u, tc.mutate)
			res, discarded, err := ck.Load(u)
			if err != nil {
				t.Fatalf("Load of corrupt unit errored (%v); want discard", err)
			}
			if res != nil {
				t.Fatal("corrupt unit was served")
			}
			if !discarded {
				t.Fatal("corrupt unit not reported as discarded")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt unit file not removed: %v", err)
			}
			// The next load sees a clean miss, so the unit is recomputed.
			res, discarded, err = ck.Load(u)
			if res != nil || discarded || err != nil {
				t.Fatalf("Load after discard = %v, %t, %v; want clean miss", res, discarded, err)
			}
		})
	}
}

// TestCheckpointInconsistentEvalDiscarded saves units whose evaluation
// passes the container checks but is not consistent with itself or its
// unit. Each must be discarded like a torn file instead of being served to
// Digest or a metric, which would index out of range.
func TestCheckpointInconsistentEvalDiscarded(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*attack.Evaluation)
	}{
		{"n-beyond-slices", func(ev *attack.Evaluation) { ev.N = 5 }},
		{"negative-n", func(ev *attack.Evaluation) { ev.N = -1 }},
		{"short-truth", func(ev *attack.Evaluation) { ev.Truth = ev.Truth[:2] }},
		{"short-truthp", func(ev *attack.Evaluation) { ev.TruthP = ev.TruthP[:2] }},
		{"short-cands", func(ev *attack.Evaluation) { ev.Cands = ev.Cands[:2] }},
		{"truth-past-n", func(ev *attack.Evaluation) { ev.Truth[2] = 3 }},
		{"truth-below-unmatched", func(ev *attack.Evaluation) { ev.Truth[2] = -2 }},
		{"candidate-past-n", func(ev *attack.Evaluation) { ev.Cands[0][1].Other = 1 << 30 }},
		{"negative-candidate", func(ev *attack.Evaluation) { ev.Cands[1][0].Other = -1 }},
		{"subset-past-n", func(ev *attack.Evaluation) { ev.Subset[2] = 3 }},
		{"negative-subset", func(ev *attack.Evaluation) { ev.Subset[0] = -1 }},
		{"other-config", func(ev *attack.Evaluation) { ev.ConfigName = "Imp-9" }},
		{"other-design", func(ev *attack.Evaluation) { ev.Design = "sb1" }},
		{"other-layer", func(ev *attack.Evaluation) { ev.SplitLayer = 8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			u := testUnit()
			ev := syntheticEval()
			tc.mutate(ev)
			if err := ck.Save(&UnitResult{Unit: u, Eval: ev}); err != nil {
				t.Fatal(err)
			}
			res, discarded, err := ck.Load(u)
			if err != nil {
				t.Fatalf("Load of an inconsistent unit errored (%v); want discard", err)
			}
			if res != nil {
				// What a merge would do next with the served unit.
				res.Eval.Digest()
				res.Eval.AccuracyAtK(1)
				t.Fatal("inconsistent unit was served")
			}
			if !discarded {
				t.Fatal("inconsistent unit not reported as discarded")
			}
		})
	}
	// The unmodified evaluation is consistent and loads.
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(&UnitResult{Unit: testUnit(), Eval: syntheticEval()}); err != nil {
		t.Fatal(err)
	}
	if res, _, err := ck.Load(testUnit()); res == nil || err != nil {
		t.Fatalf("consistent unit: res=%v err=%v", res, err)
	}
}

var (
	fixtureOnce    sync.Once
	fixtureErr     error
	fixtureDesigns []*layout.Design
)

// fixtureSuite prepares the standard suite at scale 0.12, seed 3, afresh
// from designs generated once: no cut built, no checkpoint.
func fixtureSuite(t *testing.T) *Suite {
	t.Helper()
	prov := Provenance{Scale: 0.12, Seed: 3}
	fixtureOnce.Do(func() {
		fixtureDesigns, fixtureErr = layout.GenerateSuite(layout.SuiteConfig{Scale: prov.Scale, Seed: prov.Seed})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return SuiteOf(prov, fixtureDesigns)
}

// foldFixture returns a fresh fixture suite, its instances at split layer
// 8, and a two-tree ML-9 configuration.
func foldFixture(t *testing.T) (*Suite, []*attack.Instance, attack.Config) {
	t.Helper()
	s := fixtureSuite(t)
	insts, _, err := s.Instances(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := attack.ML9()
	cfg.NumTrees = 2
	cfg.Seed = s.Prov.Seed
	return s, insts, cfg
}

// TestSuiteCutsOnce: eight goroutines that ask a fresh suite for the same
// instances and the same noisy challenges at once share one build of each
// cut. One call per key is told it built, each key is counted as one miss,
// the clean cut under both is made once, one split.challenges per design,
// and the instance build is one pairs.prep span.
func TestSuiteCutsOnce(t *testing.T) {
	const n = 8
	s := fixtureSuite(t)
	s.Obs = obs.New(obs.Options{Command: "test"})
	insts := make([][]*attack.Instance, n)
	noisy := make([][]*split.Challenge, n)
	built := make([]bool, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var hit bool
			var err error
			if insts[i], hit, err = s.Instances(6, 0); err != nil {
				t.Error(err)
			}
			built[i] = !hit
			if noisy[i], err = s.Challenges(6, 0.01); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	builds := 0
	for i := 0; i < n; i++ {
		if built[i] {
			builds++
		}
		if &insts[i][0] != &insts[0][0] || &noisy[i][0] != &noisy[0][0] {
			t.Fatalf("goroutine %d got its own build of a cut", i)
		}
	}
	if builds != 1 {
		t.Errorf("%d calls were told they built the instances, want 1", builds)
	}
	m := s.Obs.Metrics()
	if ic := m.Cache("suite.instances"); ic.Misses() != 1 || ic.Hits() != n-1 {
		t.Errorf("suite.instances hit/miss %d/%d, want %d/1", ic.Hits(), ic.Misses(), n-1)
	}
	// Eight noisy lookups plus one clean lookup by each of the two builds:
	// a miss for each of the two keys, a hit for the rest.
	if cc := m.Cache("suite.cache"); cc.Misses() != 2 || cc.Hits() != n {
		t.Errorf("suite.cache hit/miss %d/%d, want %d/2", cc.Hits(), cc.Misses(), n)
	}
	if got := m.Counter("split.challenges").Value(); got != int64(len(s.Designs)) {
		t.Errorf("split.challenges = %d, want one clean cut of %d designs", got, len(s.Designs))
	}
	preps := 0
	for _, sp := range s.Obs.BuildReport().Spans {
		if sp.Name == "pairs.prep" {
			preps++
		}
	}
	if preps != 1 {
		t.Errorf("%d pairs.prep spans, want one for the one instance build", preps)
	}
	clean, err := s.Challenges(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0][0].Ch != clean[0] || noisy[0][0].Design != clean[0].Design || noisy[0][0] == clean[0] {
		t.Error("the instances and the noisy cut are not built over the suite's clean cut")
	}
}

// TestRunShardsPartitionFolds runs one configuration's leave-one-out as
// three shards into a checkpoint: the folds each shard's Result holds
// partition the unsharded Result's folds with equal digests, the shards'
// Stats sum to one owned, computed unit per fold, and a zero-shard Run over
// the checkpoint loads every fold.
func TestRunShardsPartitionFolds(t *testing.T) {
	s, insts, cfg := foldFixture(t)
	ctx := context.Background()
	full, st, err := Run(ctx, s, Shard{}, cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Owned: len(insts), Done: len(insts)}); st != want {
		t.Fatalf("unsharded stats %+v, want %+v", st, want)
	}
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Checkpoint = ck
	var sum Stats
	owners := make([]int, len(insts))
	for i := 1; i <= 3; i++ {
		part, st, err := Run(ctx, s, Shard{Index: i, Count: 3}, cfg, 8, 0)
		if err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
		sum.Add(st)
		held := 0
		for fold, ev := range part.Evals {
			if ev == nil {
				continue
			}
			held++
			owners[fold]++
			if ev.Digest() != full.Evals[fold].Digest() {
				t.Errorf("shard %d/3 fold %d: digest differs from the unsharded run", i, fold)
			}
		}
		if held != st.Owned {
			t.Errorf("shard %d/3 holds %d folds but owned %d", i, held, st.Owned)
		}
	}
	for fold, n := range owners {
		if n != 1 {
			t.Errorf("fold %d held by %d shards, want exactly one", fold, n)
		}
	}
	if want := (Stats{Owned: len(insts), Done: len(insts)}); sum != want {
		t.Errorf("shard stats sum to %+v, want %+v", sum, want)
	}
	merged, st, err := Run(ctx, s, Shard{}, cfg, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Owned: len(insts), Skipped: len(insts)}); st != want {
		t.Errorf("merge stats %+v, want %+v", st, want)
	}
	for fold, ev := range merged.Evals {
		if ev.Digest() != full.Evals[fold].Digest() {
			t.Errorf("merged fold %d: digest differs from the unsharded run", fold)
		}
	}
}

// TestRunCancelled: a cancelled context fails every owned fold before any
// engine work.
func TestRunCancelled(t *testing.T) {
	s, _, cfg := foldFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := Run(ctx, s, Shard{}, cfg, 8, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: %v, want context.Canceled", err)
	}
	if st != (Stats{}) {
		t.Errorf("cancelled Run counted %+v", st)
	}
}

// TestRunUnitRecomputesOtherVpinCount checkpoints a consistent evaluation
// of the wrong size for a real fold: RunUnit must recompute it rather than
// serve it, and overwrite the file with the fold's own result.
func TestRunUnitRecomputesOtherVpinCount(t *testing.T) {
	s, insts, cfg := foldFixture(t)
	u := NewUnit(s.Prov, cfg, 8, 0, 0, insts[0].Ch.Design.Name)
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stale := &attack.Evaluation{ConfigName: cfg.Name, Design: u.Design, SplitLayer: u.Layer}
	if err := ck.Save(&UnitResult{Unit: u, Eval: stale}); err != nil {
		t.Fatal(err)
	}
	ev, _, outcome, err := RunUnit(nil, ck, u, cfg, insts)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Recomputed || ev.N != insts[0].N() {
		t.Fatalf("RunUnit = %s with %d v-pins; want recomputed with %d", outcome, ev.N, insts[0].N())
	}
	again, _, outcome, err := RunUnit(nil, ck, u, cfg, insts)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Loaded || again.Digest() != ev.Digest() {
		t.Fatalf("second RunUnit = %s; want the recomputed unit loaded", outcome)
	}
}

func TestCheckpointProvenanceMismatch(t *testing.T) {
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	u := testUnit()
	if err := ck.Save(&UnitResult{Unit: u, Eval: syntheticEval()}); err != nil {
		t.Fatal(err)
	}
	// Rename the valid file onto a different unit's key: the contents decode
	// fine but describe the wrong unit — a provenance error, not a discard.
	other := u
	other.Prov.Seed = 99
	if err := os.Rename(
		filepath.Join(ck.Dir(), u.Key()+".unit"),
		filepath.Join(ck.Dir(), other.Key()+".unit")); err != nil {
		t.Fatal(err)
	}
	res, discarded, err := ck.Load(other)
	if err == nil {
		t.Fatal("Load of a foreign unit succeeded; want provenance error")
	}
	if res != nil || discarded {
		t.Fatalf("foreign unit: res=%v discarded=%t; want nil, false", res, discarded)
	}
	if !strings.Contains(err.Error(), "refusing to merge") {
		t.Errorf("provenance error %q should explain the refusal", err)
	}
}

func TestSaveRefusesNilEval(t *testing.T) {
	ck, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(&UnitResult{Unit: testUnit()}); err == nil {
		t.Fatal("Save without an evaluation succeeded")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
