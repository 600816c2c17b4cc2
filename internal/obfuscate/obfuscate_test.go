package obfuscate

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/route"
	"repro/internal/split"
)

var (
	obOnce    sync.Once
	obErr     error
	obDesigns []*layout.Design
)

func designs(t *testing.T) []*layout.Design {
	t.Helper()
	obOnce.Do(func() {
		obDesigns, obErr = layout.GenerateSuite(layout.SuiteConfig{Scale: 0.2, Seed: 31})
	})
	if obErr != nil {
		t.Fatal(obErr)
	}
	return obDesigns
}

func TestPerturbRoutesValid(t *testing.T) {
	d := designs(t)[0]
	nd, cost, err := PerturbRoutes(d, 6, 3.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Routing.Validate(); err != nil {
		t.Fatalf("perturbed routing invalid: %v", err)
	}
	if cost.ReroutedNets == 0 {
		t.Fatal("no nets rerouted")
	}
	// Trunk layers must be preserved (same nets remain cut).
	for i := range d.Routing.Routes {
		if nd.Routing.Routes[i].TrunkLayer != d.Routing.Routes[i].TrunkLayer {
			t.Fatalf("net %d trunk layer changed", i)
		}
	}
	// The original design must be untouched.
	c0, err := split.NewChallenge(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := split.NewChallenge(nd, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(c0.VPins) != len(c1.VPins) {
		t.Fatalf("v-pin count changed: %d -> %d", len(c0.VPins), len(c1.VPins))
	}
	moved := 0
	for i := range c0.VPins {
		if c0.VPins[i].Pos != c1.VPins[i].Pos {
			moved++
		}
	}
	if moved < len(c0.VPins)/4 {
		t.Errorf("only %d/%d v-pins moved under perturbation", moved, len(c0.VPins))
	}
}

// TestRerouteDeterministic applies each re-routing transform twice with one
// seed: the two designs must save to the same bytes. Re-routing draws every
// net's jitter and detours from one shared stream, so the order nets are
// visited in must not depend on map iteration.
func TestRerouteDeterministic(t *testing.T) {
	d := designs(t)[0]
	transforms := map[string]func() (*layout.Design, Cost, error){
		"perturb": func() (*layout.Design, Cost, error) { return PerturbRoutes(d, 6, 2.0, 7) },
		"lift":    func() (*layout.Design, Cost, error) { return LiftNets(d, 5, 6, 2, 0.5, 7) },
	}
	for name, apply := range transforms {
		var saved [2][]byte
		for i := range saved {
			nd, _, err := apply()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := layout.Save(&buf, nd); err != nil {
				t.Fatal(err)
			}
			saved[i] = buf.Bytes()
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Errorf("%s: two runs with one seed saved different layouts", name)
		}
	}
}

func TestPerturbRoutesCostsWirelength(t *testing.T) {
	d := designs(t)[1]
	_, cost, err := PerturbRoutes(d, 6, 3.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Overhead() < -0.05 {
		t.Errorf("perturbation shrank wirelength by %.1f%%; detours should cost",
			-cost.Overhead()*100)
	}
	if cost.Overhead() > 0.5 {
		t.Errorf("perturbation overhead %.1f%% implausibly large", cost.Overhead()*100)
	}
}

func TestLiftNetsMovesPopulation(t *testing.T) {
	d := designs(t)[0]
	before := d.Routing.LayerPopulation()
	nd, cost, err := LiftNets(d, 5, 6, 2, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Routing.Validate(); err != nil {
		t.Fatal(err)
	}
	after := nd.Routing.LayerPopulation()
	if after[5]+after[6] >= before[5]+before[6] {
		t.Errorf("lift did not reduce M5/M6 population: %d -> %d",
			before[5]+before[6], after[5]+after[6])
	}
	if after[7]+after[8] <= before[7]+before[8] {
		t.Errorf("lift did not grow M7/M8 population")
	}
	if cost.ReroutedNets == 0 {
		t.Error("no nets lifted")
	}
}

func TestLiftNetsGrowsCutPopulation(t *testing.T) {
	// Lifting M5/M6 nets above split 6 means more nets are cut there.
	d := designs(t)[2]
	c0, err := split.NewChallenge(d, 6)
	if err != nil {
		t.Fatal(err)
	}
	nd, _, err := LiftNets(d, 5, 6, 2, 0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := split.NewChallenge(nd, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c1.CutNets() <= c0.CutNets() {
		t.Errorf("lift did not grow cut-net count: %d -> %d", c0.CutNets(), c1.CutNets())
	}
}

func TestPerturbationDegradesAttack(t *testing.T) {
	// The whole point: re-routed designs must be harder to attack.
	all := designs(t)
	const layer = 6
	clean := make([]*split.Challenge, len(all))
	noisy := make([]*split.Challenge, len(all))
	for i, d := range all {
		var err error
		if clean[i], err = split.NewChallenge(d, layer); err != nil {
			t.Fatal(err)
		}
		nd, _, err := PerturbRoutes(d, layer, 4.0, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if noisy[i], err = split.NewChallenge(nd, layer); err != nil {
			t.Fatal(err)
		}
	}
	cfg := attack.Imp11()
	resClean, err := attack.RunInstances(cfg, attack.NewInstancesWorkers(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfgN := attack.Imp11()
	cfgN.Name = "Imp-11-perturbed"
	resNoisy, err := attack.RunInstances(cfgN, attack.NewInstancesWorkers(noisy, 0))
	if err != nil {
		t.Fatal(err)
	}
	var a, b float64
	for i := range resClean.Evals {
		a += resClean.Evals[i].AccuracyAtK(10)
		b += resNoisy.Evals[i].AccuracyAtK(10)
	}
	if b >= a {
		t.Errorf("perturbation did not degrade attack: clean %.3f vs perturbed %.3f", a/5, b/5)
	}
}

func TestInvalidParameters(t *testing.T) {
	d := designs(t)[4]
	if _, _, err := PerturbRoutes(d, 6, 0, 1); err == nil {
		t.Error("zero jitter accepted")
	}
	if _, _, err := LiftNets(d, 1, 6, 1, 0.5, 1); err == nil {
		t.Error("lift range below M2 accepted")
	}
	if _, _, err := LiftNets(d, 5, 4, 1, 0.5, 1); err == nil {
		t.Error("inverted lift range accepted")
	}
	if _, _, err := LiftNets(d, 5, 6, 0, 0.5, 1); err == nil {
		t.Error("zero lift distance accepted")
	}
	if _, _, err := LiftNets(d, 5, 6, 1, 0, 1); err == nil {
		t.Error("zero lift fraction accepted")
	}
	if _, _, err := LiftNets(d, 5, 6, 1, 1.5, 1); err == nil {
		t.Error("fraction above 1 accepted")
	}
}

func TestCostOverhead(t *testing.T) {
	c := Cost{WirelengthBefore: 1000, WirelengthAfter: 1100}
	if c.Overhead() != 0.1 {
		t.Errorf("overhead = %f, want 0.1", c.Overhead())
	}
	if (Cost{}).Overhead() != 0 {
		t.Error("zero cost overhead must be 0")
	}
}

func TestJogTrunksBreaksAlignment(t *testing.T) {
	d := designs(t)[0]
	const layer = 6
	nd, cost, err := JogTrunks(d, layer, 3, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Routing.Validate(); err != nil {
		t.Fatalf("jogged routing invalid: %v", err)
	}
	if cost.ReroutedNets == 0 {
		t.Fatal("no trunks jogged")
	}
	// Jogs cost almost nothing.
	if cost.Overhead() > 0.02 {
		t.Errorf("jog overhead %.2f%% too high", cost.Overhead()*100)
	}

	c0, err := split.NewChallenge(d, layer)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := split.NewChallenge(nd, layer)
	if err != nil {
		t.Fatal(err)
	}
	if len(c0.VPins) != len(c1.VPins) {
		t.Fatal("jog changed v-pin count")
	}
	// Count matched pairs with equal y before and after: trunk-endpoint
	// pairs (trunk = layer+1, horizontal) start aligned; jogs must
	// misalign most of them.
	countAligned := func(c *split.Challenge) int {
		n := 0
		for i := range c.VPins {
			v := &c.VPins[i]
			if v.Match > i && v.Pos.Y == c.VPins[v.Match].Pos.Y {
				n++
			}
		}
		return n
	}
	before, after := countAligned(c0), countAligned(c1)
	if after*2 > before {
		t.Errorf("aligned matched pairs %d -> %d; jogs did not break alignment", before, after)
	}
	// The FEOL view must stay consistent (fragment wirelength == W).
	if err := c1.FEOL().Validate(c1); err != nil {
		t.Fatalf("jogged FEOL inconsistent: %v", err)
	}
}

func TestJogTrunksDegradesAttack(t *testing.T) {
	all := designs(t)
	const layer = 6
	clean := make([]*split.Challenge, len(all))
	jogged := make([]*split.Challenge, len(all))
	for i, d := range all {
		var err error
		if clean[i], err = split.NewChallenge(d, layer); err != nil {
			t.Fatal(err)
		}
		nd, _, err := JogTrunks(d, layer, 4, 1.0, int64(200+i))
		if err != nil {
			t.Fatal(err)
		}
		if jogged[i], err = split.NewChallenge(nd, layer); err != nil {
			t.Fatal(err)
		}
	}
	resClean, err := attack.RunInstances(attack.Imp11(), attack.NewInstancesWorkers(clean, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := attack.Imp11()
	cfg.Name = "Imp-11-jogged"
	resJog, err := attack.RunInstances(cfg, attack.NewInstancesWorkers(jogged, 0))
	if err != nil {
		t.Fatal(err)
	}
	var a, b float64
	for i := range resClean.Evals {
		a += resClean.Evals[i].AccuracyAtK(5)
		b += resJog.Evals[i].AccuracyAtK(5)
	}
	if b >= a {
		t.Errorf("jogs did not degrade the attack: clean %.3f vs jogged %.3f", a/5, b/5)
	}
}

func TestJogTrunksInvalidParams(t *testing.T) {
	d := designs(t)[4]
	if _, _, err := JogTrunks(d, 6, 0, 0.5, 1); err == nil {
		t.Error("zero jog distance accepted")
	}
	if _, _, err := JogTrunks(d, 6, 2, 0, 1); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, _, err := JogTrunks(d, 8, 2, 1.1, 1); err == nil {
		t.Error("fraction above 1 accepted")
	}
	if _, _, err := JogTrunks(d, 9, 2, 0.5, 1); err == nil {
		t.Error("split above top metal accepted")
	}
}

func TestJogTrunksLeavesOriginalUntouched(t *testing.T) {
	d := designs(t)[1]
	before := append([]route.Route(nil), d.Routing.Routes...)
	if _, _, err := JogTrunks(d, 6, 2, 1.0, 9); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i].TrunkB != d.Routing.Routes[i].TrunkB ||
			len(before[i].Segments) != len(d.Routing.Routes[i].Segments) {
			t.Fatalf("JogTrunks mutated the original design (net %d)", i)
		}
	}
}
