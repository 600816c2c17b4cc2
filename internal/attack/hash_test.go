package attack

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/model"
)

func TestOptionsHashStableAndDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, cfg := range append(StandardConfigs(), StandardConfigsY()...) {
		h := cfg.OptionsHash()
		if h == "" {
			t.Fatalf("%s: empty hash for a standard config", cfg.Name)
		}
		if h != cfg.OptionsHash() {
			t.Fatalf("%s: hash not deterministic", cfg.Name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("configs %s and %s share hash %s", prev, cfg.Name, h)
		}
		seen[h] = cfg.Name
	}
}

func TestOptionsHashIgnoresRunInputs(t *testing.T) {
	a := Imp11()
	b := Imp11()
	b.Seed = 42
	b.Workers = 7
	b.ShardVpins = 128
	if a.OptionsHash() != b.OptionsHash() {
		t.Error("run inputs (seed/workers/sharding) changed the options hash")
	}
	c := Imp11()
	c.NumTrees = 3
	if a.OptionsHash() == c.OptionsHash() {
		t.Error("NumTrees did not change the options hash")
	}
	d := WithBase(Imp11(), ml.RandomTree, 0)
	if a.OptionsHash() == d.OptionsHash() {
		t.Error("base classifier did not change the options hash")
	}
}

func TestOptionsHashDefaultsApplied(t *testing.T) {
	a := Imp11()
	b := Imp11()
	b = b.withDefaults()
	if a.OptionsHash() != b.OptionsHash() {
		t.Error("a config and its defaults-applied form must hash identically")
	}
}

// TestOptionsHashPresetStability pins the exact hashes of every
// pre-existing Bagging configuration: the family and ranking lines append
// after the historical fields only for non-default values, so these
// constants — the config coordinates of every previously checkpointed
// sweep unit — must never change. Recompute them only for a deliberate,
// documented break of checkpoint compatibility.
func TestOptionsHashPresetStability(t *testing.T) {
	twoLevel := WithTwoLevel(Imp11())
	twoLevel.Name = "Imp-11-2L"
	forest := WithBase(Imp11(), ml.RandomTree, 0)
	forest.Name = "Imp-11-RandomForest"
	pinned := []struct {
		cfg  Config
		want string
	}{
		{ML9(), "e89a017deb14d845e9a751114597e6f33c0ce892322cc7d007a0a48b00514c8e"},
		{Imp9(), "1a0161e20e486504f9649f8031917f9da9389eb53428f8285dfc807bdc6b1b69"},
		{Imp7(), "6e675a0a4c8d7c0ed1f80e8b3d135379ae16fe6743b1a339457abb1cc778360e"},
		{Imp11(), "002561972c48547ebcd9eb58aa6cb81a2a9102aa9511dbe7d054bdb14e4c12ce"},
		{WithY(ML9()), "ac01d6726911ae8f432f0263c915903eda5f6066ebf828faa82c35bde4a82b30"},
		{WithY(Imp9()), "5d2021230981e6f2d955b1604b0dc092086f54681d015e74a3d9059da7c4e830"},
		{WithY(Imp7()), "42b6f8439e748e6746310dc53206202678b03c36b7b2434fe1f0fee6bd103147"},
		{WithY(Imp11()), "24436f89a1aedeb938f045e4e901cf3e20ea248ae5b98b2ddf0f3f5912154663"},
		{twoLevel, "2ad7a99b29548b08d8a6a83e111a0253771e72eef4fb7b96513920b81e86c932"},
		{forest, "2838bd16de8fd6f484e88a0404d410a058582ee3c1c5671b772eaef3378b2dde"},
	}
	for _, tc := range pinned {
		if got := tc.cfg.OptionsHash(); got != tc.want {
			t.Errorf("%s: OptionsHash = %s, want pinned %s", tc.cfg.Name, got, tc.want)
		}
	}
}

// TestOptionsHashFamilies: every learner-family axis — the family itself,
// the MLP knobs, the ranking head — must be part of the config coordinate,
// and the explicit "bagging" spelling must alias the default.
func TestOptionsHashFamilies(t *testing.T) {
	base := Imp11()
	spelled := WithFamily(Imp11(), model.FamilyBagging)
	if base.OptionsHash() != spelled.OptionsHash() {
		t.Error("explicit bagging family must hash like the default")
	}
	mlp := WithFamily(Imp11(), model.FamilyMLP)
	if mlp.OptionsHash() == base.OptionsHash() {
		t.Error("mlp family did not change the options hash")
	}
	logistic := WithFamily(Imp11(), model.FamilyLogistic)
	if logistic.OptionsHash() == base.OptionsHash() || logistic.OptionsHash() == mlp.OptionsHash() {
		t.Error("logistic family hash must be distinct")
	}
	wide := mlp
	wide.MLPHidden = 32
	if wide.OptionsHash() == mlp.OptionsHash() {
		t.Error("MLPHidden did not change the options hash")
	}
	ranked := WithRanking(Imp11())
	if ranked.OptionsHash() == base.OptionsHash() {
		t.Error("ranking head did not change the options hash")
	}
	seen := map[string]string{}
	for _, cfg := range ConfigPresets() {
		h := cfg.OptionsHash()
		if prev, dup := seen[h]; dup {
			t.Errorf("presets %s and %s share hash %s", prev, cfg.Name, h)
		}
		seen[h] = cfg.Name
	}
}
