package model

import (
	"encoding/json"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pairs"
)

func TestFamilyRegistry(t *testing.T) {
	// The empty name aliases bagging: every pre-family TrainOptions literal
	// keeps resolving to the paper's learner.
	def, err := FamilyByName("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != FamilyBagging {
		t.Fatalf("default family is %q, want %q", def.Name(), FamilyBagging)
	}
	for _, name := range []string{FamilyBagging, FamilyMLP, FamilyLogistic} {
		f, err := FamilyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Name() != name {
			t.Fatalf("FamilyByName(%q).Name() = %q", name, f.Name())
		}
	}
	if _, err := FamilyByName("no-such-family"); err == nil {
		t.Fatal("unknown family resolved without error")
	} else if !strings.Contains(err.Error(), "no-such-family") {
		t.Errorf("error %q does not name the unknown family", err)
	}
	names := Families()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Families() not sorted/unique: %v", names)
		}
	}
}

// collidingFamily registers under an already-taken name to prove Register
// refuses duplicates.
type collidingFamily struct{ name string }

func (c collidingFamily) Name() string                          { return c.name }
func (collidingFamily) HashOptions(w io.Writer, o TrainOptions) {}
func (collidingFamily) Train(ctx TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	return nil, nil
}
func (collidingFamily) Encode(sc pairs.Scorer) ([]byte, error) { return nil, nil }
func (collidingFamily) Decode(data []byte) (pairs.Scorer, error) {
	return nil, nil
}

func TestRegisterRejectsDuplicatesAndEmptyNames(t *testing.T) {
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", label)
			}
		}()
		f()
	}
	mustPanic("duplicate registration", func() { Register(collidingFamily{name: FamilyBagging}) })
	mustPanic("empty name", func() { Register(collidingFamily{}) })
}

// TestSpecHashPinned pins exact pre-family Spec.Hash values: the bagging
// family writes the identical canonical bytes the pre-family format wrote,
// so every artifact cached before the family axis existed stays addressable.
// Recompute these constants only for a deliberate, documented cache break.
func TestSpecHashPinned(t *testing.T) {
	imp11 := Spec{
		Opts: TrainOptions{
			Name: "Imp-11", Features: features.Set11(), Neighborhood: true,
		}.WithDefaults(),
		Seed: 42, Fold: 1, SplitLayer: 8,
		Designs:    []string{"sb1", "sb5", "sb10", "sb12"},
		DataDigest: strings.Repeat("0123456789abcdef", 4),
		RadiusNorm: 0.0625,
	}
	twoLevel := imp11
	twoLevel.Opts.TwoLevel = true
	capped := twoLevel
	capped.Opts.MaxLoCCount = 256
	ml9 := Spec{
		Opts: TrainOptions{Name: "ML-9", Features: features.Set9()}.WithDefaults(),
		Seed: 7, Fold: 0, SplitLayer: 6,
		Designs:    []string{"sb1", "sb5"},
		DataDigest: strings.Repeat("feedface", 8),
		RadiusNorm: -1,
	}
	pinned := []struct {
		label string
		spec  Spec
		want  string
	}{
		{"imp11-1L", imp11, "e7eb5d20a4d5f5ab1da952d4c706b0d2071fc50695b69757707126aab5a806a3"},
		{"imp11-2L", twoLevel, "023692e48337bf9d03b938aeedf22c6f7eff4b54412af252d19821ec3dfe6cce"},
		{"imp11-2L-cap", capped, "f643a72eaa3f4cde0b7f8fe4e8d34508271109d711f6760d777742341aeb8eb9"},
		{"ml9", ml9, "71ee2ad53119e214afeef3dc7b4422a9a40b81a84107e269c1d7924e93abde60"},
	}
	for _, tc := range pinned {
		if got := tc.spec.Hash(); got != tc.want {
			t.Errorf("%s: Hash = %s, want pinned %s", tc.label, got, tc.want)
		}
	}
}

func TestSpecHashFamilyAxis(t *testing.T) {
	base := testSpec(t, imp11Opts())
	spelled := base
	spelled.Opts.Family = FamilyBagging
	spelled.Opts = spelled.Opts.WithDefaults()
	if spelled.Hash() != base.Hash() {
		t.Error("explicit bagging spelling changed the spec hash")
	}
	mlp := base
	mlp.Opts.Family = FamilyMLP
	mlp.Opts = mlp.Opts.WithDefaults()
	if mlp.Hash() == base.Hash() {
		t.Error("mlp family did not change the spec hash")
	}
	logistic := base
	logistic.Opts.Family = FamilyLogistic
	if logistic.Hash() == base.Hash() || logistic.Hash() == mlp.Hash() {
		t.Error("logistic family hash must be distinct")
	}
	wide := mlp
	wide.Opts.MLPHidden = 32
	if wide.Hash() == mlp.Hash() {
		t.Error("MLPHidden did not change the mlp spec hash")
	}
}

func mlpOpts() TrainOptions {
	return TrainOptions{
		Name: "DL-MLP-test", Features: features.Set15(), Neighborhood: true,
		Family: FamilyMLP, MLPEpochs: 4,
	}
}

// TestMLPArtifactRoundTrip: the MLP family's artifacts carry the family
// kind tag, round-trip the container byte-exactly, score identically after
// decoding, and reject corruption — the same contract the bagging artifacts
// have always had.
func TestMLPArtifactRoundTrip(t *testing.T) {
	spec := testSpec(t, mlpOpts())
	art, stats, err := Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples == 0 {
		t.Fatalf("train stats %+v report no work", stats)
	}
	if art.Meta.Family != FamilyMLP {
		t.Fatalf("artifact family %q, want %q", art.Meta.Family, FamilyMLP)
	}
	if _, ok := art.Scorer().(*ml.MLP); !ok {
		t.Fatalf("trained scorer is %T, want *ml.MLP", art.Scorer())
	}
	blob, err := art.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalArtifact(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.Family != FamilyMLP {
		t.Fatalf("decoded family %q, want %q", back.Meta.Family, FamilyMLP)
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("mlp artifact round trip is not byte-exact")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		row := make([]float64, features.NumAll)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if got, want := back.Scorer().Prob(row), art.Scorer().Prob(row); got != want {
			t.Fatalf("decoded Prob = %v, original = %v", got, want)
		}
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"payload flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"checksum flip": func(b []byte) []byte { b[len(b)-2] ^= 1; return b },
	} {
		if _, err := UnmarshalArtifact(corrupt(append([]byte(nil), blob...))); err == nil {
			t.Errorf("%s: corrupted mlp artifact decoded without error", name)
		}
	}
}

// TestMLPStoreCaching: MLP specs cache exactly like bagging specs — second
// train is a memory hit, and a fresh store loads the artifact from disk
// bit-identically. This is the behavior the old Learner closure could never
// have (it bypassed the Store entirely).
func TestMLPStoreCaching(t *testing.T) {
	o := obs.New(obs.Options{Command: "test"})
	dir := t.TempDir()
	spec := testSpec(t, mlpOpts())
	spec.Obs = o

	store := NewStore(0, dir)
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
	if _, err := filepath.Glob(filepath.Join(dir, "*.model")); err != nil {
		t.Fatal(err)
	}
	second := NewStore(0, dir)
	c, stats3, err := second.GetOrTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats3 != (TrainStats{}) {
		t.Fatalf("disk hit reported training work: %+v", stats3)
	}
	wa, _ := a.MarshalBinary()
	wc, _ := c.MarshalBinary()
	if string(wa) != string(wc) {
		t.Fatal("disk-loaded mlp artifact not bit-identical")
	}
}

// TestBaggingMetaOmitsFamily pins the artifact-byte compatibility shim: the
// bagging family is the zero value and must be absent from the serialized
// meta JSON, keeping every committed artifact_bytes baseline exact.
func TestBaggingMetaOmitsFamily(t *testing.T) {
	art, _, err := Train(testSpec(t, imp11Opts()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(art.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "family") {
		t.Fatalf("bagging artifact meta %s mentions family; bytes no longer match the pre-family format", raw)
	}
}
