package attack

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/split"
)

// Shared test fixtures: one small suite, challenges per layer, generated
// once per test binary.
var (
	fixOnce sync.Once
	fixErr  error
	fixChs  map[int][]*split.Challenge
)

func challenges(t testing.TB, layer int) []*split.Challenge {
	t.Helper()
	fixOnce.Do(func() {
		designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: 0.2, Seed: 5})
		if err != nil {
			fixErr = err
			return
		}
		fixChs = map[int][]*split.Challenge{}
		for _, layer := range []int{4, 6, 8} {
			for _, d := range designs {
				c, err := split.NewChallenge(d, layer)
				if err != nil {
					fixErr = err
					return
				}
				fixChs[layer] = append(fixChs[layer], c)
			}
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixChs[layer]
}

// runLOO is the full leave-one-out run over freshly prepared instances.
func runLOO(cfg Config, chs []*split.Challenge) (*Result, error) {
	return RunInstances(cfg, NewInstancesWorkers(chs, cfg.Workers))
}

// runFold is the single leave-one-out fold over freshly prepared instances.
func runFold(cfg Config, chs []*split.Challenge, target int) (*Evaluation, float64, error) {
	return RunFoldInstances(cfg, NewInstancesWorkers(chs, cfg.Workers), target)
}

// cached attack results to avoid re-running identical configurations.
var (
	resMu    sync.Mutex
	resCache = map[string]*Result{}
)

func run(t *testing.T, cfg Config, layer int) *Result {
	t.Helper()
	key := cfg.Name + string(rune('0'+layer))
	resMu.Lock()
	defer resMu.Unlock()
	if r, ok := resCache[key]; ok {
		return r
	}
	r, err := runLOO(cfg, challenges(t, layer))
	if err != nil {
		t.Fatal(err)
	}
	resCache[key] = r
	return r
}

func TestConfigDefaults(t *testing.T) {
	c := Config{TrainOptions: model.TrainOptions{Name: "x"}}.withDefaults()
	if c.NeighborQuantile != 0.90 {
		t.Errorf("default quantile %f", c.NeighborQuantile)
	}
	if c.NumTrees != ml.DefaultBaggingSize {
		t.Errorf("default trees %d", c.NumTrees)
	}
	if len(c.Features) != 9 {
		t.Errorf("default features %d", len(c.Features))
	}
	cr := Config{TrainOptions: model.TrainOptions{Name: "x", BaseKind: ml.RandomTree}}.withDefaults()
	if cr.NumTrees != ml.DefaultForestSize {
		t.Errorf("random-tree default trees %d", cr.NumTrees)
	}
}

// configSink keeps the configurations built under testing.AllocsPerRun.
var configSink Config

// TestConfigByNameBuildsOne resolves every listed preset to a config equal
// to the listed one, refuses unknown names, and checks that a lookup
// allocates no more than building its one preset. The list keeps its
// presentation order: the standard configurations, their Y variants, then
// the DL-perspective ones.
func TestConfigByNameBuildsOne(t *testing.T) {
	want := append(StandardConfigs(), StandardConfigsY()...)
	want = append(want, DLMLP(), DLMLPRank())
	listed := ConfigPresets()
	if !reflect.DeepEqual(listed, want) {
		t.Fatalf("ConfigPresets lists %d presets out of presentation order", len(listed))
	}
	for _, c := range listed {
		got, ok := ConfigByName(c.Name)
		if !ok || !reflect.DeepEqual(got, c) {
			t.Errorf("ConfigByName(%q) = %+v, %v; want the listed preset", c.Name, got, ok)
		}
	}
	for _, name := range []string{"", "ml-9", "Imp-11YY", "Imp-11 ", "DL-MLP-Y"} {
		if _, ok := ConfigByName(name); ok {
			t.Errorf("ConfigByName(%q) resolved an unknown name", name)
		}
	}
	lookup := testing.AllocsPerRun(50, func() { configSink, _ = ConfigByName("Imp-11Y") })
	build := testing.AllocsPerRun(50, func() { configSink = WithY(Imp11()) })
	if lookup > build {
		t.Errorf("ConfigByName allocates %v times per lookup, building the preset %v", lookup, build)
	}
}

func TestStandardConfigNames(t *testing.T) {
	names := []string{}
	for _, c := range StandardConfigs() {
		names = append(names, c.Name)
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
	want := []string{"ML-9", "Imp-9", "Imp-7", "Imp-11"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("config %d = %s, want %s", i, names[i], want[i])
		}
	}
	for i, c := range StandardConfigsY() {
		if c.Name != want[i]+"Y" || !c.LimitDiffVpinY {
			t.Errorf("Y config %d = %+v", i, c)
		}
	}
	if !ML9().Neighborhood == false || Imp9().Neighborhood != true {
		t.Error("neighborhood flags wrong")
	}
	if len(Imp7().Features) != 7 || len(Imp11().Features) != 11 {
		t.Error("feature counts wrong")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	chs := challenges(t, 8)
	if _, err := runLOO(ML9(), chs[:1]); err == nil {
		t.Error("single design accepted")
	}
	mixed := []*split.Challenge{chs[0], challenges(t, 6)[1]}
	if _, err := runLOO(ML9(), mixed); err == nil {
		t.Error("mixed split layers accepted")
	}
	bad := ML9()
	bad.Features = []int{99}
	if _, err := runLOO(bad, chs); err == nil {
		t.Error("bad feature index accepted")
	}
	if _, err := runLOO(Config{}, chs); err == nil {
		t.Error("unnamed config accepted")
	}
}

func TestRunShape(t *testing.T) {
	res := run(t, ML9(), 8)
	chs := challenges(t, 8)
	if len(res.Evals) != len(chs) {
		t.Fatalf("%d evaluations for %d designs", len(res.Evals), len(chs))
	}
	for i, ev := range res.Evals {
		if ev.Design != chs[i].Design.Name {
			t.Errorf("evaluation %d design %s", i, ev.Design)
		}
		if ev.N != len(chs[i].VPins) {
			t.Errorf("evaluation %d covers %d v-pins, want %d", i, ev.N, len(chs[i].VPins))
		}
		if ev.SplitLayer != 8 {
			t.Errorf("evaluation %d layer %d", i, ev.SplitLayer)
		}
	}
}

func TestLayer8AttackQuality(t *testing.T) {
	res := run(t, ML9(), 8)
	for _, ev := range res.Evals {
		if acc := ev.MaxAccuracy(); acc < 0.95 {
			t.Errorf("%s: ML-9 max accuracy %.3f at layer 8 (no filtering, should be ~1)", ev.Design, acc)
		}
		if acc := ev.AccuracyAtK(10); acc < 0.6 {
			t.Errorf("%s: accuracy@10 = %.3f at layer 8", ev.Design, acc)
		}
	}
}

func TestLayer8EasierThanLayer6(t *testing.T) {
	acc8 := 0.0
	for _, ev := range run(t, Imp11(), 8).Evals {
		acc8 += ev.AccuracyAtK(5)
	}
	acc6 := 0.0
	for _, ev := range run(t, Imp11(), 6).Evals {
		acc6 += ev.AccuracyAtK(5)
	}
	if acc8 <= acc6 {
		t.Errorf("layer 8 aggregate accuracy %.3f not above layer 6 %.3f", acc8/5, acc6/5)
	}
}

func TestAccuracyMonotoneInK(t *testing.T) {
	ev := run(t, Imp9(), 8).Evals[0]
	prev := -1.0
	for k := 1; k <= 30; k++ {
		acc := ev.AccuracyAtK(k)
		if acc < prev-1e-12 {
			t.Fatalf("accuracy decreased at k=%d: %.6f < %.6f", k, acc, prev)
		}
		prev = acc
	}
	if ev.AccuracyAtK(0) != 0 {
		t.Error("accuracy at k=0 must be 0")
	}
}

func TestMeanLoCMonotoneInThreshold(t *testing.T) {
	ev := run(t, ML9(), 8).Evals[0]
	prev := ev.MeanLoC(0)
	for _, thr := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		cur := ev.MeanLoC(thr)
		if cur > prev+1e-9 {
			t.Fatalf("MeanLoC increased at threshold %.1f", thr)
		}
		prev = cur
	}
	if ev.MeanLoC(1.01) != 0 {
		t.Error("MeanLoC above max probability must be 0")
	}
}

func TestAccuracyThresholdConsistency(t *testing.T) {
	ev := run(t, ML9(), 8).Evals[1]
	for _, thr := range []float64{0.2, 0.5, 0.8} {
		acc := ev.Accuracy(thr)
		if acc < 0 || acc > 1 {
			t.Fatalf("accuracy %.3f out of range", acc)
		}
	}
	if a0, a1 := ev.Accuracy(0.0), ev.Accuracy(1.0); a0 < a1 {
		t.Error("accuracy must not increase with threshold")
	}
	if ev.MaxAccuracy() != ev.Accuracy(0) {
		t.Error("MaxAccuracy must equal Accuracy(0)")
	}
}

func TestLoCForAccuracyRoundTrip(t *testing.T) {
	ev := run(t, ML9(), 8).Evals[2]
	for _, target := range []float64{0.5, 0.7, 0.9} {
		loc := ev.LoCForAccuracy(target)
		if loc < 0 {
			continue // saturated below target
		}
		if got := ev.AccuracyAtK(int(loc)); got < target-1e-9 {
			t.Errorf("LoCForAccuracy(%.2f) = %.0f but accuracy there is %.3f", target, loc, got)
		}
		if loc > 1 {
			if prev := ev.AccuracyAtK(int(loc) - 1); prev >= target {
				t.Errorf("LoCForAccuracy(%.2f) = %.0f not minimal", target, loc)
			}
		}
	}
}

func TestLoCForAccuracyUnreachable(t *testing.T) {
	// Imp on sb12 saturates well below 100%: requesting accuracy 1.0 must
	// return the paper's "dash".
	res := run(t, Imp9(), 8)
	found := false
	for _, ev := range res.Evals {
		if ev.MaxAccuracy() < 0.999 {
			found = true
			if ev.LoCForAccuracy(0.9999) != -1 {
				t.Errorf("%s: unreachable accuracy did not return -1", ev.Design)
			}
			if ev.LoCFracForAccuracy(0.9999) != -1 {
				t.Errorf("%s: unreachable accuracy fraction did not return -1", ev.Design)
			}
		}
	}
	if !found {
		t.Skip("no saturated design in this suite")
	}
}

func TestNeighborhoodSaturation(t *testing.T) {
	ml9 := run(t, ML9(), 6)
	imp9 := run(t, Imp9(), 6)
	for i := range ml9.Evals {
		if ml9.Evals[i].MaxAccuracy() < imp9.Evals[i].MaxAccuracy()-1e-9 {
			t.Errorf("%s: Imp max accuracy above ML (filtering cannot add matches)",
				ml9.Evals[i].Design)
		}
	}
	// At least one design must show the saturation plateau.
	saturated := false
	for _, ev := range imp9.Evals {
		if ev.MaxAccuracy() < 0.97 {
			saturated = true
		}
	}
	if !saturated {
		t.Error("no design saturated under the 90% neighborhood")
	}
	for i := range imp9.RadiusNorm {
		if imp9.RadiusNorm[i] <= 0 || imp9.RadiusNorm[i] > 2 {
			t.Errorf("implausible neighborhood radius %f", imp9.RadiusNorm[i])
		}
		if ml9.RadiusNorm[i] != -1 {
			t.Errorf("ML-9 should not compute a radius")
		}
	}
}

func TestNeighborhoodShrinksTestedPairs(t *testing.T) {
	ml9 := run(t, ML9(), 6)
	imp9 := run(t, Imp9(), 6)
	var mlPairs, impPairs int
	for i := range ml9.Evals {
		mlPairs += int(ml9.Evals[i].MeanLoC(0) * float64(ml9.Evals[i].N))
		impPairs += int(imp9.Evals[i].MeanLoC(0) * float64(imp9.Evals[i].N))
	}
	if impPairs >= mlPairs {
		t.Errorf("Imp stored %d scored pairs, ML %d; neighborhood should shrink the candidate space",
			impPairs, mlPairs)
	}
}

func TestYConfigLayer8(t *testing.T) {
	plain := run(t, Imp9(), 8)
	y := run(t, WithY(Imp9()), 8)
	var plainLoC, yLoC, plainAcc, yAcc float64
	for i := range plain.Evals {
		plainLoC += plain.Evals[i].MeanLoC(0)
		yLoC += y.Evals[i].MeanLoC(0)
		plainAcc += plain.Evals[i].AccuracyAtK(5)
		yAcc += y.Evals[i].AccuracyAtK(5)
	}
	if yLoC >= plainLoC {
		t.Errorf("Y candidates (%.1f) not fewer than plain (%.1f)", yLoC/5, plainLoC/5)
	}
	if yAcc < plainAcc-0.05*5 {
		t.Errorf("Y accuracy %.3f clearly below plain %.3f", yAcc/5, plainAcc/5)
	}
}

func TestTwoLevelRuns(t *testing.T) {
	res := run(t, WithTwoLevel(Imp11()), 8)
	for _, ev := range res.Evals {
		if acc := ev.MaxAccuracy(); acc < 0 || acc > 1 {
			t.Fatalf("two-level accuracy %.3f out of range", acc)
		}
		if ev.MeanLoC(0) <= 0 {
			t.Fatalf("%s: two-level produced empty candidate lists", ev.Design)
		}
	}
}

func TestRandomTreeBase(t *testing.T) {
	cfg := WithBase(Imp7(), ml.RandomTree, 20)
	cfg.Name = "Imp-7-RT"
	res := run(t, cfg, 8)
	for _, ev := range res.Evals {
		if acc := ev.AccuracyAtK(10); acc < 0.5 {
			t.Errorf("%s: RandomTree-based accuracy@10 = %.3f", ev.Design, acc)
		}
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	chs := challenges(t, 8)
	cfg := Imp9()
	cfg.Seed = 99
	a, err := runLOO(cfg, chs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLOO(cfg, chs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Evals {
		for v := range a.Evals[i].TruthP {
			if a.Evals[i].TruthP[v] != b.Evals[i].TruthP[v] {
				t.Fatalf("TruthP differs between identical-seed runs (design %d, vpin %d)", i, v)
			}
		}
	}
}

func TestTrainingSetProperties(t *testing.T) {
	chs := challenges(t, 6)
	insts := NewInstancesWorkers(chs[:4], 0)
	rng := rand.New(rand.NewSource(3))
	cfg := Imp9().withDefaults()
	radius := NeighborRadiusNorm(insts, cfg.NeighborQuantile)
	ds := TrainingSet(cfg, insts, radius, nil, rng)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	pos := ds.Positives()
	neg := ds.Len() - pos
	if pos == 0 || neg == 0 {
		t.Fatal("training set missing a class")
	}
	ratio := float64(pos) / float64(neg)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("positive/negative ratio %.2f not balanced", ratio)
	}
}

func TestTrainingSetCap(t *testing.T) {
	chs := challenges(t, 6)
	insts := NewInstancesWorkers(chs[:2], 0)
	rng := rand.New(rand.NewSource(4))
	cfg := ML9().withDefaults()
	cfg.TrainCap = 100
	ds := TrainingSet(cfg, insts, -1, nil, rng)
	if ds.Len() != 100 {
		t.Errorf("capped training set has %d rows, want 100", ds.Len())
	}
}

func TestNeighborRadiusNorm(t *testing.T) {
	chs := challenges(t, 6)
	insts := NewInstancesWorkers(chs, 0)
	r90 := NeighborRadiusNorm(insts, 0.90)
	r100 := NeighborRadiusNorm(insts, 1.0)
	r50 := NeighborRadiusNorm(insts, 0.50)
	if !(r50 <= r90 && r90 <= r100) {
		t.Errorf("radius quantiles not monotone: %f/%f/%f", r50, r90, r100)
	}
	if r90 <= 0 {
		t.Error("radius must be positive")
	}
}

func TestLogisticFamilyDrivesAttack(t *testing.T) {
	// A non-tree learner family must drive the attack end to end.
	cfg := WithFamily(Imp11(), model.FamilyLogistic)
	cfg.Name = "Imp-11-logistic"
	res := run(t, cfg, 8)
	var acc float64
	for _, ev := range res.Evals {
		acc += ev.AccuracyAtK(10)
	}
	acc /= float64(len(res.Evals))
	// Logistic regression is weaker than the tree ensemble but must still
	// attack far better than chance.
	if acc < 0.3 {
		t.Errorf("logistic attack accuracy@10 = %.3f", acc)
	}
	bagged := 0.0
	for _, ev := range run(t, Imp11(), 8).Evals {
		bagged += ev.AccuracyAtK(10)
	}
	bagged /= 5
	if acc > bagged+0.05 {
		t.Logf("note: logistic (%.3f) outperformed bagging (%.3f) on this suite", acc, bagged)
	}
}

func TestScoreSubset(t *testing.T) {
	chs := challenges(t, 8)
	insts := NewInstancesWorkers(chs, 0)
	rng := rand.New(rand.NewSource(5))
	cfg := Imp9().withDefaults()
	radius := NeighborRadiusNorm(others(insts, 0), cfg.NeighborQuantile)
	ds := TrainingSet(cfg, others(insts, 0), radius, nil, rng)
	sc, err := model.TrainContext{Opts: cfg.TrainOptions, Seed: cfg.Seed, Unit: model.UnitLevel1}.Train(ds)
	if err != nil {
		t.Fatal(err)
	}
	subset := []int{0, 5, 9}
	ev := scoreSubset(sc, insts[0], cfg, radius, subset)
	for _, a := range subset {
		if ev.Cands[a] == nil {
			t.Errorf("subset v-pin %d not scored", a)
		}
	}
	scored := 0
	for a := 0; a < ev.N; a++ {
		if ev.Cands[a] != nil {
			scored++
		}
	}
	if scored != len(subset) {
		t.Errorf("%d v-pins scored, want %d", scored, len(subset))
	}
}
