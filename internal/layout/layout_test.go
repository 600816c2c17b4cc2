package layout

import (
	"testing"

	"repro/internal/route"
)

// smallSuite is shared across tests; generating designs is the expensive
// part of this package's tests.
func smallSuite(t *testing.T) []*Design {
	t.Helper()
	designs, err := GenerateSuite(SuiteConfig{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return designs
}

func TestGenerateSuiteNames(t *testing.T) {
	designs := smallSuite(t)
	want := []string{"sb1", "sb5", "sb10", "sb12", "sb18"}
	if len(designs) != len(want) {
		t.Fatalf("got %d designs, want %d", len(designs), len(want))
	}
	for i, d := range designs {
		if d.Name != want[i] {
			t.Errorf("design %d name %q, want %q", i, d.Name, want[i])
		}
	}
}

func TestSuiteDesignsValid(t *testing.T) {
	for _, d := range smallSuite(t) {
		if err := d.Netlist.Validate(); err != nil {
			t.Errorf("%s: netlist invalid: %v", d.Name, err)
		}
		if err := d.Routing.Validate(); err != nil {
			t.Errorf("%s: routing invalid: %v", d.Name, err)
		}
		if len(d.Routing.Routes) != len(d.Netlist.Nets) {
			t.Errorf("%s: %d routes for %d nets", d.Name, len(d.Routing.Routes), len(d.Netlist.Nets))
		}
	}
}

func TestSuiteTrunkPopulations(t *testing.T) {
	// Every design must have nets on the top layers, or the split-layer
	// experiments would be empty; and populations must grow toward the
	// bottom, as in real designs.
	for _, d := range smallSuite(t) {
		pop := d.Routing.LayerPopulation()
		if pop[9] == 0 {
			t.Errorf("%s: no nets with trunk M9", d.Name)
		}
		cut8 := pop[9]
		cut6 := pop[9] + pop[8] + pop[7]
		cut4 := cut6 + pop[6] + pop[5]
		if !(cut4 > cut6 && cut6 > cut8) {
			t.Errorf("%s: cut-net counts not increasing toward lower splits: %d/%d/%d",
				d.Name, cut8, cut6, cut4)
		}
	}
}

func TestSuiteRelativeSizes(t *testing.T) {
	designs := smallSuite(t)
	byName := map[string]*Design{}
	for _, d := range designs {
		byName[d.Name] = d
	}
	cut8 := func(d *Design) int {
		return d.Routing.LayerPopulation()[9]
	}
	// sb12 has the most top-layer nets and sb18 the fewest, as in Table I.
	if cut8(byName["sb12"]) <= cut8(byName["sb1"]) {
		t.Errorf("sb12 top-layer nets (%d) not above sb1 (%d)",
			cut8(byName["sb12"]), cut8(byName["sb1"]))
	}
	if cut8(byName["sb18"]) > cut8(byName["sb5"]) {
		t.Errorf("sb18 top-layer nets (%d) above sb5 (%d)",
			cut8(byName["sb18"]), cut8(byName["sb5"]))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := SuiteProfiles(SuiteConfig{Scale: 0.1, Seed: 3})[0]
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Netlist.Nets) != len(b.Netlist.Nets) {
		t.Fatal("net counts differ between identical runs")
	}
	for i := range a.Routing.Routes {
		if a.Routing.Routes[i].TrunkA != b.Routing.Routes[i].TrunkA {
			t.Fatalf("route %d differs between identical runs", i)
		}
	}
}

func TestGenerateRejectsEmptyProfile(t *testing.T) {
	if _, err := Generate(Profile{Name: "empty"}); err == nil {
		t.Error("want error for empty profile")
	}
}

func TestLayerFracsSumToOne(t *testing.T) {
	f := layerFracs(TrunkTargets{T9: 100, T78: 400, T56: 1000}, 10000)
	var sum float64
	for m := 2; m <= route.NumMetal; m++ {
		sum += f[m]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer fractions sum to %f, want 1", sum)
	}
	if f[9] != 0.01 {
		t.Errorf("f9 = %f, want 0.01", f[9])
	}
}

func TestScaleChangesSize(t *testing.T) {
	small := SuiteProfiles(SuiteConfig{Scale: 0.1})[0]
	big := SuiteProfiles(SuiteConfig{Scale: 0.5})[0]
	if small.NumNets >= big.NumNets {
		t.Errorf("scale 0.1 nets (%d) not below scale 0.5 nets (%d)", small.NumNets, big.NumNets)
	}
	if small.DieSize != big.DieSize {
		t.Errorf("die size should not scale with Scale")
	}
}

func TestValidTier(t *testing.T) {
	for _, tier := range []string{"", TierStandard, TierIndustrial} {
		if !ValidTier(tier) {
			t.Errorf("ValidTier(%q) = false, want true", tier)
		}
	}
	for _, tier := range []string{"huge", "Standard", "industrial "} {
		if ValidTier(tier) {
			t.Errorf("ValidTier(%q) = true, want false", tier)
		}
	}
	if got := SuiteProfiles(SuiteConfig{Tier: "huge", Scale: 1}); got != nil {
		t.Errorf("SuiteProfiles with unknown tier returned %d profiles, want nil", len(got))
	}
	if _, err := GenerateSuite(SuiteConfig{Tier: "huge", Scale: 0.1, Seed: 1}); err == nil {
		t.Error("GenerateSuite accepted an unknown tier")
	}
}

func TestIndustrialProfiles(t *testing.T) {
	std := SuiteProfiles(SuiteConfig{Tier: TierStandard, Scale: 1, Seed: 1})
	ind := SuiteProfiles(SuiteConfig{Tier: TierIndustrial, Scale: 1, Seed: 1})
	wantNames := []string{"sbx1", "sbx10", "sbx12"}
	if len(ind) != len(wantNames) {
		t.Fatalf("industrial tier has %d profiles, want %d", len(ind), len(wantNames))
	}
	stdByName := map[string]Profile{}
	for _, p := range std {
		stdByName[p.Name] = p
	}
	for i, p := range ind {
		if p.Name != wantNames[i] {
			t.Errorf("profile %d named %q, want %q", i, p.Name, wantNames[i])
		}
		// The tier's whole point: every design is industrial-sized.
		if p.NumCells < 100000 {
			t.Errorf("%s has %d cells, want >= 100000", p.Name, p.NumCells)
		}
		// Die area grows with the size multiplier so density stays at the
		// calibrated standard-tier level: cells per die area within 10%.
		base := stdByName["sb"+p.Name[3:]]
		stdDensity := float64(base.NumCells) / (float64(base.DieSize) * float64(base.DieSize))
		indDensity := float64(p.NumCells) / (float64(p.DieSize) * float64(p.DieSize))
		if ratio := indDensity / stdDensity; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s density %.3g vs standard %.3g (ratio %.2f), want within 10%%",
				p.Name, indDensity, stdDensity, ratio)
		}
		if p.Seed == base.Seed {
			t.Errorf("%s shares its seed with %s", p.Name, base.Name)
		}
	}
}

// TestStandardProfilesUnchanged pins the pre-tier suite bit-for-bit: the
// tier refactor must not move a single field of the historical profiles.
func TestStandardProfilesUnchanged(t *testing.T) {
	p := SuiteProfiles(SuiteConfig{Scale: 1, Seed: 1})
	if len(p) != 5 {
		t.Fatalf("standard tier has %d profiles, want 5", len(p))
	}
	sb1 := p[0]
	if sb1.Name != "sb1" || sb1.Seed != 102 || sb1.DieSize != 36000 ||
		sb1.NumCells != 9600 || sb1.NumNets != 10680 ||
		sb1.TrunkTargets != (TrunkTargets{T9: 196, T78: 879, T56: 2663}) {
		t.Errorf("sb1 profile changed: %+v", sb1)
	}
	for i, tierCfg := range []SuiteConfig{{Scale: 0.3, Seed: 9}, {Tier: TierStandard, Scale: 0.3, Seed: 9}} {
		got := SuiteProfiles(tierCfg)
		if len(got) != 5 || got[0].NumCells != int(9600*0.3) {
			t.Errorf("case %d: empty-tier and standard-tier profiles diverge", i)
		}
	}
}

func TestIndustrialDieGrowth(t *testing.T) {
	// At tiny scales the multiplier drops to or below 1 and the die must
	// stay at its base edge — exactly the pre-tier behavior.
	tiny := SuiteProfiles(SuiteConfig{Tier: TierIndustrial, Scale: 0.05, Seed: 1})[0]
	if tiny.DieSize != 36000 {
		t.Errorf("sbx1 at scale 0.05 die %d, want base 36000", tiny.DieSize)
	}
	full := SuiteProfiles(SuiteConfig{Tier: TierIndustrial, Scale: 1, Seed: 1})[0]
	if full.DieSize <= 36000 {
		t.Errorf("sbx1 at scale 1 die %d, want above base 36000", full.DieSize)
	}
}

// TestGenerateIndustrialTiny generates the industrial tier at a small scale
// end to end: the designs must be valid and carry the sbx names. (The
// attack package's golden table pins the small suite's layout bytes;
// full-size generation runs in splitbench's industrial-l4 workload.)
func TestGenerateIndustrialTiny(t *testing.T) {
	designs, err := GenerateSuite(SuiteConfig{Tier: TierIndustrial, Scale: 0.03, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sbx1", "sbx10", "sbx12"}
	if len(designs) != len(want) {
		t.Fatalf("got %d designs, want %d", len(designs), len(want))
	}
	for i, d := range designs {
		if d.Name != want[i] {
			t.Errorf("design %d named %q, want %q", i, d.Name, want[i])
		}
		if err := d.Netlist.Validate(); err != nil {
			t.Errorf("%s: netlist invalid: %v", d.Name, err)
		}
		if err := d.Routing.Validate(); err != nil {
			t.Errorf("%s: routing invalid: %v", d.Name, err)
		}
	}
}
