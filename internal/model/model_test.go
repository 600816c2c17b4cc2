package model

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/split"
)

// Shared fixture: one small suite's instances at split layer 8, built once
// per test binary.
var (
	fixOnce  sync.Once
	fixErr   error
	fixInsts []*pairs.Instance
)

func instances(t testing.TB) []*pairs.Instance {
	t.Helper()
	fixOnce.Do(func() {
		designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: 0.2, Seed: 5})
		if err != nil {
			fixErr = err
			return
		}
		chs := make([]*split.Challenge, len(designs))
		for i, d := range designs {
			if chs[i], fixErr = split.NewChallenge(d, 8); fixErr != nil {
				return
			}
		}
		fixInsts = pairs.NewAll(chs, 0)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixInsts
}

// trainInsts is the leave-one-out training fold for target 0.
func trainInsts(t testing.TB) []*pairs.Instance {
	insts := instances(t)
	return insts[1:]
}

func imp11Opts() TrainOptions {
	return TrainOptions{Name: "Imp-11-test", Features: features.Set11(), Neighborhood: true}
}

func testSpec(t testing.TB, opts TrainOptions) Spec {
	insts := trainInsts(t)
	radius := pairs.NeighborRadiusNorm(insts, 0.9)
	if !opts.Neighborhood {
		radius = -1
	}
	return NewSpec(opts, 42, 0, insts, radius)
}

func TestSpecHashStable(t *testing.T) {
	a := testSpec(t, imp11Opts()).Hash()
	b := testSpec(t, imp11Opts()).Hash()
	if a != b {
		t.Fatalf("hash not stable: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("hash %q is not a sha256 hex string", a)
	}
}

func TestSpecHashSensitivity(t *testing.T) {
	base := testSpec(t, imp11Opts())
	mutations := map[string]func(*Spec){
		"seed":       func(s *Spec) { s.Seed++ },
		"fold":       func(s *Spec) { s.Fold++ },
		"layer":      func(s *Spec) { s.SplitLayer++ },
		"designs":    func(s *Spec) { s.Designs = append([]string{"extra"}, s.Designs...) },
		"data":       func(s *Spec) { s.DataDigest = "0" + s.DataDigest[1:] },
		"radius":     func(s *Spec) { s.RadiusNorm *= 1.0000001 },
		"features":   func(s *Spec) { s.Opts.Features = features.Set9() },
		"quantile":   func(s *Spec) { s.Opts.NeighborQuantile = 0.85 },
		"ylimit":     func(s *Spec) { s.Opts.LimitDiffVpinY = true },
		"trees":      func(s *Spec) { s.Opts.NumTrees++ },
		"traincap":   func(s *Spec) { s.Opts.TrainCap = 100 },
		"two-level":  func(s *Spec) { s.Opts.TwoLevel = true },
		"neighbhood": func(s *Spec) { s.Opts.Neighborhood = false },
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		if s.Hash() == base.Hash() {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
	// Presentation and execution fields must NOT change the hash: scoring
	// results are identical regardless, so they would only fragment the cache.
	for name, mutate := range map[string]func(*Spec){
		"name":    func(s *Spec) { s.Opts.Name = "renamed" },
		"shard":   func(s *Spec) { s.Opts.ShardVpins = 64 },
		"workers": func(s *Spec) { s.Workers = 7 },
	} {
		s := base
		mutate(&s)
		if s.Hash() != base.Hash() {
			t.Errorf("mutating %s changed the hash", name)
		}
	}
}

// TestSpecLevel1Sharing pins the cache-sharing property: the level-1 stage
// of a two-level spec hashes identically to the plain one-level spec, so
// Imp-11 and Imp-11-2L share one level-1 artifact.
func TestSpecLevel1Sharing(t *testing.T) {
	plain := testSpec(t, imp11Opts())
	two := plain
	two.Opts.TwoLevel = true
	two.Opts.MaxLoCFrac = 0.15
	if two.Hash() == plain.Hash() {
		t.Fatal("two-level spec hashes like its one-level variant")
	}
	if two.Level1().Hash() != plain.Hash() {
		t.Fatal("two-level spec's level-1 stage does not share the one-level hash")
	}
	// MaxLoCFrac influences only the two-level stage.
	narrower := plain
	narrower.Opts.MaxLoCFrac = 0.05
	if narrower.Hash() != plain.Hash() {
		t.Error("MaxLoCFrac changed a one-level hash")
	}
	narrower.Opts.TwoLevel = true
	if narrower.Hash() == two.Hash() {
		t.Error("MaxLoCFrac did not change a two-level hash")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	spec := testSpec(t, imp11Opts())
	art, stats, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples == 0 || stats.Level1 == 0 {
		t.Fatalf("train stats %+v report no work", stats)
	}
	if art.Meta.SpecHash != spec.Hash() || art.Meta.Level != 1 || art.Meta.Trees == 0 {
		t.Fatalf("artifact meta %+v does not describe the spec", art.Meta)
	}

	blob, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Meta, art.Meta) {
		t.Fatalf("decoded meta %+v, want %+v", back.Meta, art.Meta)
	}
	// Bit-equal scorers: the decoded arena re-encodes to the same bytes,
	// and Prob agrees on random feature rows.
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("artifact round trip is not byte-exact")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		row := make([]float64, features.NumFeatures)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if got, want := back.Scorer().Prob(row), art.Scorer().Prob(row); got != want {
			t.Fatalf("decoded Prob = %v, original = %v", got, want)
		}
	}
}

func TestTwoLevelArtifactRoundTrip(t *testing.T) {
	opts := imp11Opts()
	opts.TwoLevel = true
	spec := testSpec(t, opts)
	art, stats, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	if art.Meta.Level != 2 || art.Meta.Level2Trees == 0 || stats.Level2Samples == 0 {
		t.Fatalf("two-level artifact meta %+v / stats %+v", art.Meta, stats)
	}
	blob, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Scorer().(*pairs.TwoLevel); !ok {
		t.Fatalf("decoded scorer is %T, want *pairs.TwoLevel", back.Scorer())
	}
	e1a, e2a, _ := art.Ensembles()
	e1b, e2b, _ := back.Ensembles()
	for name, pair := range map[string][2]interface{ MarshalBinary() ([]byte, error) }{
		"level-1": {e1a, e1b}, "level-2": {e2a, e2b},
	} {
		wa, _ := pair[0].MarshalBinary()
		wb, _ := pair[1].MarshalBinary()
		if string(wa) != string(wb) {
			t.Fatalf("%s ensemble not bit-identical after round trip", name)
		}
	}
}

func TestArtifactRejectsCorruption(t *testing.T) {
	art, _, err := Train(testSpec(t, imp11Opts()))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":         func(b []byte) []byte { return nil },
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":     func(b []byte) []byte { b[0] = 'x'; return b },
		"bad version":   func(b []byte) []byte { b[8] = 0xEE; return b },
		"payload flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"checksum flip": func(b []byte) []byte { b[len(b)-2] ^= 1; return b },
	}
	for name, corrupt := range cases {
		if _, err := UnmarshalArtifact(corrupt(append([]byte(nil), blob...))); err == nil {
			t.Errorf("%s: corrupted artifact decoded without error", name)
		}
	}
}

func TestArtifactFileRoundTrip(t *testing.T) {
	art, _, err := Train(testSpec(t, imp11Opts()))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.model")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.SpecHash != art.Meta.SpecHash {
		t.Fatalf("loaded spec hash %s, want %s", back.Meta.SpecHash, art.Meta.SpecHash)
	}
	// A truncated file must be rejected, not half-loaded.
	blob, _ := os.ReadFile(path)
	if err := os.WriteFile(path, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("truncated artifact file loaded without error")
	}
}

func TestStoreMemoryHits(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	spec := testSpec(t, imp11Opts())
	spec.Obs = o
	store := NewStore(0, "")

	a, stats, err := store.GetOrTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Level1 == 0 {
		t.Fatal("first GetOrTrain reported no training work")
	}
	b, stats2, err := store.GetOrTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatal("cache hit returned a different artifact pointer")
	}
	if stats2 != (TrainStats{}) {
		t.Fatalf("cache hit reported training work: %+v", stats2)
	}
	c := o.Metrics().Cache("model.artifacts")
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d artifacts, want 1", store.Len())
	}
}

// TestStoreLevel1SharedWithTwoLevel pins the "train each stage exactly
// once" property across configurations: training the plain spec first means
// the two-level spec reuses the cached level-1 model and trains only its
// level-2 stage.
func TestStoreLevel1SharedWithTwoLevel(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	store := NewStore(0, "")
	plain := testSpec(t, imp11Opts())
	plain.Obs = o
	if _, _, err := store.GetOrTrain(plain); err != nil {
		t.Fatal(err)
	}

	two := plain
	two.Opts.TwoLevel = true
	_, stats, err := store.GetOrTrain(two)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sampling != 0 || stats.Level1 != 0 {
		t.Fatalf("two-level run re-ran the cached level-1 stage: %+v", stats)
	}
	if stats.Level2 == 0 || stats.Level2Samples == 0 {
		t.Fatalf("two-level run did not train its level-2 stage: %+v", stats)
	}
	c := o.Metrics().Cache("model.artifacts")
	// plain: 1 miss. two: level-1 hit + level-2 miss.
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/2", c.Hits(), c.Misses())
	}
}

// probOnly hides a model's ProbBatch, so the backend resolver scores it
// row by row through Prob: the oracle of the batched path.
type probOnly struct{ pairs.Scorer }

// TestCandidateListsMatchRowOracle: the level-1 lists the two-level stage
// draws its negatives from are the same whether the level-1 model scores
// through its own ProbBatch or row by row through Prob.
func TestCandidateListsMatchRowOracle(t *testing.T) {
	opts := imp11Opts()
	opts.TwoLevel = true
	spec := testSpec(t, opts)
	l1, _, err := trainLevel1(spec.Level1())
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range spec.Insts {
		want := candidateLists(spec, inst, probOnly{l1.l1}, 1)
		got := candidateLists(spec, inst, l1.l1, 2)
		if len(got) != len(want) {
			t.Fatalf("design %d: %d lists, oracle %d", i, len(got), len(want))
		}
		for a := range want {
			if !slices.Equal(got[a], want[a]) {
				t.Fatalf("design %d v-pin %d: batched list differs from the row oracle", i, a)
			}
		}
	}
}

func TestStoreDiskLayer(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	dir := t.TempDir()
	spec := testSpec(t, imp11Opts())
	spec.Obs = o

	first := NewStore(0, dir)
	a, _, err := first.GetOrTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := filepath.Join(dir, spec.Hash()+".model")
	if _, err := os.Stat(onDisk); err != nil {
		t.Fatalf("artifact not persisted to %s: %v", onDisk, err)
	}

	// A fresh process (fresh Store, same dir) loads instead of training.
	second := NewStore(0, dir)
	b, stats, err := second.GetOrTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (TrainStats{}) {
		t.Fatalf("disk hit reported training work: %+v", stats)
	}
	if got := o.Metrics().Counter("model.artifacts.disk.hit").Value(); got != 1 {
		t.Fatalf("disk-hit counter = %d, want 1", got)
	}
	wa, _ := a.MarshalBinary()
	wb, _ := b.MarshalBinary()
	if string(wa) != string(wb) {
		t.Fatal("disk-loaded artifact not bit-identical to the trained one")
	}

	// Corrupt the on-disk copy: the store must fall back to training, not
	// serve damaged bits.
	blob, _ := os.ReadFile(onDisk)
	blob[len(blob)/2] ^= 1
	if err := os.WriteFile(onDisk, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	third := NewStore(0, dir)
	c, stats3, err := third.GetOrTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Level1 == 0 {
		t.Fatal("store served a corrupted disk artifact instead of retraining")
	}
	wc, _ := c.MarshalBinary()
	if string(wc) != string(wa) {
		t.Fatal("retrained artifact not bit-identical")
	}
}

// TestStoreRefusesArtifactWiderThanSpec plants forged bagging and MLP
// artifacts under a spec's hash in the disk layer: each decodes and carries
// the right spec hash, but its model reads feature column 40, past the
// spec's row width. The store must treat it as a miss and train.
func TestStoreRefusesArtifactWiderThanSpec(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	wide := &ml.Dataset{}
	for i := 0; i < 200; i++ {
		x := make([]float64, 41)
		x[40] = r.Float64()
		wide.Add(x, x[40] > 0.5)
	}
	bag, err := ml.TrainBagging(wide, 2, ml.TreeOptions{Features: []int{40}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := ml.TrainMLP(wide, ml.MLPOptions{Features: []int{40}, Epochs: 1}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	mlpOpts := imp11Opts()
	mlpOpts.Family = FamilyMLP
	mlpOpts.MLPEpochs = 1
	for _, tc := range []struct {
		opts   TrainOptions
		forged pairs.Scorer
	}{
		{imp11Opts(), bag.Compile()},
		{mlpOpts, nn},
	} {
		dir := t.TempDir()
		spec := testSpec(t, tc.opts)
		genuine, _, err := Train(spec)
		if err != nil {
			t.Fatal(err)
		}
		forged := &Artifact{Meta: genuine.Meta, l1: tc.forged}
		if err := forged.WriteFile(filepath.Join(dir, spec.Hash()+".model")); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(filepath.Join(dir, spec.Hash()+".model")); err != nil {
			t.Fatalf("%s: forged artifact does not decode: %v", tc.opts.Family, err)
		}
		if err := forged.CheckWidth(features.Width(spec.Opts.Features)); err == nil {
			t.Fatalf("%s: CheckWidth accepted a model reading column 40", tc.opts.Family)
		}
		got, stats, err := NewStore(0, dir).GetOrTrain(spec)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Level1 == 0 {
			t.Fatalf("%s: store served the forged artifact instead of training", tc.opts.Family)
		}
		wg, _ := genuine.MarshalBinary()
		wt, _ := got.MarshalBinary()
		if string(wg) != string(wt) {
			t.Fatalf("%s: trained artifact differs from the genuine one", tc.opts.Family)
		}
	}
}

func TestStoreCoalescesConcurrentTraining(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	spec := testSpec(t, imp11Opts())
	spec.Obs = o
	store := NewStore(0, "")

	const callers = 8
	arts := make([]*Artifact, callers)
	trained := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			art, stats, err := store.GetOrTrain(spec)
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = art
			if stats.Level1 > 0 {
				mu.Lock()
				trained++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if trained != 1 {
		t.Fatalf("%d callers performed training, want exactly 1", trained)
	}
	for i := 1; i < callers; i++ {
		if arts[i] != arts[0] {
			t.Fatal("coalesced callers received different artifacts")
		}
	}
}

// TestSpecMismatchIsDetectable: an artifact trained for one fold must not
// hash-match another fold's spec (RunTargetArtifact relies on this).
func TestSpecMismatchIsDetectable(t *testing.T) {
	insts := instances(t)
	radius := pairs.NeighborRadiusNorm(insts[1:], 0.9)
	fold0 := NewSpec(imp11Opts(), 42, 0, insts[1:], radius)
	fold1 := NewSpec(imp11Opts(), 42, 1, append([]*pairs.Instance{insts[0]}, insts[2:]...),
		pairs.NeighborRadiusNorm(append([]*pairs.Instance{insts[0]}, insts[2:]...), 0.9))
	if fold0.Hash() == fold1.Hash() {
		t.Fatal("different folds share a spec hash")
	}
}

// TestTrainOptionsValidate holds each option to its range: zero selects
// the default and passes, and a value outside the range is an error
// instead of being silently replaced by the default.
func TestTrainOptionsValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name  string
		set   func(*TrainOptions)
		valid bool
	}{
		{"defaults", func(*TrainOptions) {}, true},
		{"in range", func(o *TrainOptions) {
			o.NeighborQuantile, o.MaxLoCFrac, o.NumTrees, o.MaxLoCCount = 1, 0.1, 3, 64
			o.ShardVpins, o.TrainCap, o.Family = 100, 500, FamilyMLP
			o.MLPHidden, o.MLPEpochs, o.MLPRate = 4, 2, 0.5
		}, true},
		{"no name", func(o *TrainOptions) { o.Name = "" }, false},
		{"feature past the columns", func(o *TrainOptions) { o.Features = []int{features.NumAll} }, false},
		{"unknown family", func(o *TrainOptions) { o.Family = "randomforest" }, false},
		{"quantile above 1", func(o *TrainOptions) { o.NeighborQuantile = 1.5 }, false},
		{"negative quantile", func(o *TrainOptions) { o.NeighborQuantile = -0.1 }, false},
		{"NaN quantile", func(o *TrainOptions) { o.NeighborQuantile = nan }, false},
		{"LoC fraction above 1", func(o *TrainOptions) { o.MaxLoCFrac = 2 }, false},
		{"NaN LoC fraction", func(o *TrainOptions) { o.MaxLoCFrac = nan }, false},
		{"negative trees", func(o *TrainOptions) { o.NumTrees = -3 }, false},
		{"negative LoC count", func(o *TrainOptions) { o.MaxLoCCount = -1 }, false},
		{"negative region size", func(o *TrainOptions) { o.ShardVpins = -2 }, false},
		{"negative train cap", func(o *TrainOptions) { o.TrainCap = -1 }, false},
		{"negative hidden width", func(o *TrainOptions) { o.MLPHidden = -3 }, false},
		{"negative epochs", func(o *TrainOptions) { o.MLPEpochs = -1 }, false},
		{"negative rate", func(o *TrainOptions) { o.MLPRate = -0.05 }, false},
		{"NaN rate", func(o *TrainOptions) { o.MLPRate = nan }, false},
		{"infinite rate", func(o *TrainOptions) { o.MLPRate = math.Inf(1) }, false},
	}
	for _, tc := range cases {
		o := imp11Opts()
		tc.set(&o)
		if err := o.Validate(); (err == nil) != tc.valid {
			t.Errorf("%s: Validate() = %v, want valid=%t", tc.name, err, tc.valid)
		}
	}
}
