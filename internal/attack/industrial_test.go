package attack

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/split"
)

// Industrial-tier smoke fixture: the sbx* suite at a small scale, so the
// streamed scoring path, the absolute retention cap, and the tier plumbing
// are all exercised in seconds rather than minutes. The golden table pins
// fold 0 of this suite; the full-size tier is checked by splitbench's
// industrial-l4 workload against its digests.
var (
	indOnce sync.Once
	indErr  error
	indChs  []*split.Challenge
)

func industrialChallenges(t testing.TB) []*split.Challenge {
	t.Helper()
	indOnce.Do(func() {
		designs, err := layout.GenerateSuite(layout.SuiteConfig{
			Tier: layout.TierIndustrial, Scale: 0.02, Seed: 3})
		if err != nil {
			indErr = err
			return
		}
		for _, d := range designs {
			c, err := split.NewChallenge(d, 6)
			if err != nil {
				indErr = err
				return
			}
			indChs = append(indChs, c)
		}
	})
	if indErr != nil {
		t.Fatal(indErr)
	}
	return indChs
}

// industrialSmokeConfig is Imp-11 trimmed for test speed, with the tier's
// memory bounds on.
func industrialSmokeConfig() Config {
	cfg := Imp11()
	cfg.Seed = 11
	cfg.NumTrees = 3
	cfg.MaxLoCCount = 64
	return cfg
}

// TestIndustrialTierSmoke runs the leave-one-out attack on the tiny
// industrial suite across worker counts and shard sizes: every combination
// must produce the same evaluation digest, and the absolute retention cap
// must hold on every candidate list.
func TestIndustrialTierSmoke(t *testing.T) {
	chs := industrialChallenges(t)
	base := industrialSmokeConfig()

	type combo struct{ workers, shard int }
	combos := []combo{
		{workers: 1, shard: 0},
		{workers: 4, shard: 17},
		{workers: runtime.GOMAXPROCS(0), shard: 1},
		{workers: 2, shard: 1 << 20},
	}
	var want *Evaluation
	var wantDigest string
	for _, c := range combos {
		cfg := base
		cfg.Workers = c.workers
		cfg.ShardVpins = c.shard
		ev, _, err := runFold(cfg, chs, 0)
		if err != nil {
			t.Fatalf("workers=%d shard=%d: %v", c.workers, c.shard, err)
		}
		if want == nil {
			want, wantDigest = ev, ev.Digest()
			continue
		}
		if got := ev.Digest(); got != wantDigest {
			t.Errorf("workers=%d shard=%d: digest %s, want %s", c.workers, c.shard, got, wantDigest)
		}
		sameEval(t, fmt.Sprintf("workers=%d shard=%d", c.workers, c.shard), want, ev)
	}

	for v, cands := range want.Cands {
		if len(cands) > base.MaxLoCCount {
			t.Fatalf("v-pin %d retained %d candidates, cap %d", v, len(cands), base.MaxLoCCount)
		}
	}
	var retained int64
	for _, cands := range want.Cands {
		retained += int64(len(cands))
	}
	if want.Retained != retained {
		t.Errorf("Retained = %d, lists hold %d", want.Retained, retained)
	}
	if want.Regions < 1 {
		t.Errorf("Regions = %d, want >= 1", want.Regions)
	}
}

// TestMaxLoCCountTruncatesExactly pins the compact-retention contract: the
// capped run's lists are exactly the uncapped run's lists cut at the cap,
// so FCR/LoC metrics agree wherever the retained bound covers them.
func TestMaxLoCCountTruncatesExactly(t *testing.T) {
	chs := industrialChallenges(t)
	full := industrialSmokeConfig()
	full.MaxLoCCount = 0
	capped := industrialSmokeConfig()

	evFull, _, err := runFold(full, chs, 1)
	if err != nil {
		t.Fatal(err)
	}
	evCapped, _, err := runFold(capped, chs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range evFull.Cands {
		want := evFull.Cands[v]
		if len(want) > capped.MaxLoCCount {
			want = want[:capped.MaxLoCCount]
		}
		got := evCapped.Cands[v]
		if len(got) != len(want) {
			t.Fatalf("v-pin %d: capped list has %d candidates, want %d", v, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("v-pin %d candidate %d: %+v, want %+v", v, j, got[j], want[j])
			}
		}
		if evFull.TruthP[v] != evCapped.TruthP[v] {
			t.Fatalf("v-pin %d: TruthP %v vs %v", v, evFull.TruthP[v], evCapped.TruthP[v])
		}
	}
	if evFull.PairsScored != evCapped.PairsScored {
		t.Errorf("capped run scored %d pairs, uncapped %d — the cap must change retention, not scoring",
			evCapped.PairsScored, evFull.PairsScored)
	}
}

func TestConfigValidateMemoryKnobs(t *testing.T) {
	cfg := Imp11()
	cfg.MaxLoCCount = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MaxLoCCount accepted")
	}
	cfg = Imp11()
	cfg.ShardVpins = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative ShardVpins accepted")
	}
	cfg = Imp11()
	cfg.MaxLoCCount = 64
	cfg.ShardVpins = 100
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid memory knobs rejected: %v", err)
	}
}

func TestRetainCap(t *testing.T) {
	cfg := Imp11().withDefaults() // MaxLoCFrac 0 resolves to 0.15
	if got := cfg.RetainCap(1000); got != 150 {
		t.Errorf("RetainCap(1000) = %d, want 150", got)
	}
	cfg.MaxLoCCount = 100
	if got := cfg.RetainCap(1000); got != 100 {
		t.Errorf("RetainCap(1000) with count 100 = %d, want 100", got)
	}
	cfg.MaxLoCCount = 500
	if got := cfg.RetainCap(1000); got != 150 {
		t.Errorf("RetainCap(1000) with loose count = %d, want 150 (fraction still binds)", got)
	}
}
