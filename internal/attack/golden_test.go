package attack

// The golden table pins absolute results: evaluation digests, scoring
// counters, trained-artifact bytes and generated-layout bytes, for the
// paper presets on the test fixture, for the standard suite at full scale,
// and for one small industrial fold. Every other determinism test compares
// two runs of the engine with each other; this one compares the engine
// with the committed table, so a change that moves every result the same
// way fails here. Regenerate with
//
//	go test ./internal/attack -run Golden -update
//
// and review the diff of testdata/golden.json: a changed digest is a
// changed attack result.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/pairs"
	"repro/internal/split"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

const (
	goldenPath = "testdata/golden.json"
	// goldenShard pins the region size of every golden fold, so Regions is
	// the same at any worker count (the automatic size follows GOMAXPROCS).
	// Results are bit-identical at every shard size.
	goldenShard = 64
	// mallocSlack is the ceiling on a full-scale fold's heap allocation
	// count: at most this multiple of the recorded count.
	mallocSlack = 1.5
	// goldenVersion stands in for the build version in pinned artifacts:
	// a VCS-stamped build writes its revision into Meta.Version, which
	// must not move the pinned bytes.
	goldenVersion = "(devel)"
)

// goldenTable is the committed document. Suites map "<config>@L<layer>"
// to the fold-0 result of that configuration.
type goldenTable struct {
	GOARCH     string            `json:"goarch"`
	FullScale  goldenSuite       `json:"full_scale"`
	Fixture    goldenSuite       `json:"fixture"`
	Industrial goldenSuite       `json:"industrial"`
	Layouts    map[string]string `json:"layouts"`
}

type goldenSuite struct {
	Tier    string                `json:"tier"`
	Scale   float64               `json:"scale"`
	Seed    int64                 `json:"seed"`
	Fold    int                   `json:"fold"`
	Designs int                   `json:"designs"`
	Folds   map[string]goldenFold `json:"folds"`
}

type goldenFold struct {
	Design     string `json:"design"`
	Cells      int    `json:"cells"`
	VPins      int    `json:"vpins"`
	EvalDigest string `json:"eval_digest"`
	Pairs      int64  `json:"pairs"`
	Batches    int64  `json:"batches"`
	BatchRows  int64  `json:"batch_rows"`
	Regions    int    `json:"regions"`
	Retained   int64  `json:"retained"`
	// Mallocs is the heap allocation count of the whole fold, training
	// included, at Workers: 1, to two significant digits; a ceiling, not
	// an exact value.
	Mallocs  uint64         `json:"mallocs,omitempty"`
	Artifact goldenArtifact `json:"artifact"`
}

type goldenArtifact struct {
	Samples int    `json:"samples"`
	Trees   int    `json:"trees"`
	Bytes   int    `json:"bytes"`
	SHA256  string `json:"sha256"`
}

// twoLevel11 is the two-level-pruning Imp-11 configuration under the name
// the full-scale baseline has always used for it.
func twoLevel11() Config {
	c := WithTwoLevel(Imp11())
	c.Name += "-2L"
	return c
}

// goldenFixtureRuns lists the fixture suite's pinned configurations: every
// paper preset at layers 8, 6 and 4, the Y variants at layer 8, two-level
// pruning at layers 8 and 6, and the learner-family configurations of
// ext-dl and ext-classifiers at layer 8.
func goldenFixtureRuns() []goldenRun {
	var runs []goldenRun
	for _, layer := range []int{8, 6, 4} {
		for _, c := range StandardConfigs() {
			runs = append(runs, goldenRun{c, layer})
		}
	}
	for _, c := range StandardConfigsY() {
		runs = append(runs, goldenRun{c, 8})
	}
	runs = append(runs, goldenRun{twoLevel11(), 8}, goldenRun{twoLevel11(), 6})
	logistic := WithFamily(Imp11(), model.FamilyLogistic)
	logistic.Name = "Imp-11-logistic"
	for _, c := range []Config{DLMLP(), DLMLPRank(), logistic} {
		runs = append(runs, goldenRun{c, 8})
	}
	return runs
}

type goldenRun struct {
	cfg   Config
	layer int
}

func (r goldenRun) key() string { return fmt.Sprintf("%s@L%d", r.cfg.Name, r.layer) }

// goldenFoldOf runs fold 0 of cfg over insts and records it. workers is
// the run's worker count; at 1 the fold's heap allocations are counted.
func goldenFoldOf(t *testing.T, cfg Config, insts []*Instance, workers int, countMallocs bool) goldenFold {
	t.Helper()
	cfg.ShardVpins = goldenShard
	cfg.Workers = workers
	cfg.Models = model.NewStore(0, "")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev, _, err := RunFoldInstances(cfg, insts, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	spec, _, err := TrainSpec(cfg, insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := cfg.Models.GetOrTrain(spec) // the fold's own artifact, cached
	if err != nil {
		t.Fatal(err)
	}
	pinned := *art
	pinned.Meta.Version = goldenVersion
	blob, err := pinned.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	d := insts[0].Ch.Design
	g := goldenFold{
		Design:     d.Name,
		Cells:      len(d.Netlist.Cells),
		VPins:      ev.N,
		EvalDigest: ev.Digest(),
		Pairs:      ev.PairsScored,
		Batches:    ev.Batches,
		BatchRows:  ev.BatchRows,
		Regions:    ev.Regions,
		Retained:   ev.Retained,
		Artifact: goldenArtifact{
			Samples: art.Meta.Samples,
			Trees:   art.Meta.Trees,
			Bytes:   len(blob),
			SHA256:  hex.EncodeToString(sum[:]),
		},
	}
	if countMallocs {
		g.Mallocs = twoDigits(after.Mallocs - before.Mallocs)
	}
	return g
}

// twoDigits rounds n to two significant digits. A fold's allocation count
// moves by a few from run to run (the runtime's pools refill after a
// collection), and the rounded count does not, so -update rewrites the
// table byte for byte.
func twoDigits(n uint64) uint64 {
	unit := uint64(1)
	for n/unit >= 100 {
		unit *= 10
	}
	return (n + unit/2) / unit * unit
}

// fullScaleChallenges generates the standard suite at scale 1.0, seed 1,
// cut at layer 6: the coordinates the full-scale entries have always been
// measured at.
func fullScaleChallenges(t *testing.T) []*split.Challenge {
	t.Helper()
	designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chs := make([]*split.Challenge, len(designs))
	for i, d := range designs {
		if chs[i], err = split.NewChallenge(d, 6); err != nil {
			t.Fatal(err)
		}
	}
	return chs
}

// layoutHashes adds the SHA-256 of layout.Save's bytes for every design of
// chs to out, keyed "<suite>/<design>": the tier for the fixture and the
// industrial suite, "full_scale" for the standard suite at scale 1.0.
func layoutHashes(t *testing.T, suite string, chs []*split.Challenge, out map[string]string) {
	t.Helper()
	for _, c := range chs {
		var buf bytes.Buffer
		if err := layout.Save(&buf, c.Design); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		out[suite+"/"+c.Design.Name] = hex.EncodeToString(sum[:])
	}
}

// computeGolden runs every pinned fold. The full-scale folds run at
// Workers: 1 so their allocation counts are comparable; everything else
// runs at the default worker count, which no pinned value depends on.
func computeGolden(t *testing.T) goldenTable {
	tab := goldenTable{
		GOARCH: runtime.GOARCH,
		FullScale: goldenSuite{Tier: layout.TierStandard, Scale: 1, Seed: 1,
			Folds: map[string]goldenFold{}},
		Fixture: goldenSuite{Tier: layout.TierStandard, Scale: 0.2, Seed: 5,
			Folds: map[string]goldenFold{}},
		Industrial: goldenSuite{Tier: layout.TierIndustrial, Scale: 0.02, Seed: 3,
			Folds: map[string]goldenFold{}},
		Layouts: map[string]string{},
	}

	fullChs := fullScaleChallenges(t)
	layoutHashes(t, "full_scale", fullChs, tab.Layouts)
	full := NewInstancesWorkers(fullChs, 0)
	tab.FullScale.Designs = len(full)
	for _, c := range []Config{ML9(), Imp11(), twoLevel11()} {
		c.Seed = 1
		tab.FullScale.Folds[goldenRun{c, 6}.key()] = goldenFoldOf(t, c, full, 1, true)
	}

	insts := map[int][]*Instance{}
	for _, r := range goldenFixtureRuns() {
		if insts[r.layer] == nil {
			insts[r.layer] = NewInstancesWorkers(challenges(t, r.layer), 0)
		}
		c := r.cfg
		c.Seed = 5
		tab.Fixture.Folds[r.key()] = goldenFoldOf(t, c, insts[r.layer], 0, false)
	}
	tab.Fixture.Designs = len(insts[8])
	layoutHashes(t, layout.TierStandard, challenges(t, 8), tab.Layouts)

	ind := industrialChallenges(t)
	tab.Industrial.Designs = len(ind)
	c := industrialSmokeConfig()
	tab.Industrial.Folds[goldenRun{c, 6}.key()] =
		goldenFoldOf(t, c, NewInstancesWorkers(ind, 0), 0, false)
	layoutHashes(t, layout.TierIndustrial, ind, tab.Layouts)
	return tab
}

// TestGoldenTable holds the engine to testdata/golden.json: every value
// exactly, except the full-scale folds' allocation counts, which may grow
// to mallocSlack times the recorded count.
func TestGoldenTable(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenTable
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for _, d := range diffGolden(want, got) {
		t.Errorf("%s (GOARCH %s; the table holds %s values); if the change is intended, "+
			"rerun `go test ./internal/attack -run Golden -update` and review the diff",
			d, runtime.GOARCH, want.GOARCH)
	}
}

// diffGolden compares two tables field by field and describes each
// difference by its path, "<suite>.<entry>.<field>". Allocation counts are
// ceilings.
func diffGolden(want, got goldenTable) []string {
	w, g := flatten(want), flatten(got)
	keys := make([]string, 0, len(w)+len(g))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		wv, wok := w[k]
		gv, gok := g[k]
		switch {
		case !wok:
			out = append(out, fmt.Sprintf("%s: %v, not in the table", k, gv))
		case !gok:
			out = append(out, fmt.Sprintf("%s: missing, the table holds %v", k, wv))
		case strings.HasSuffix(k, ".mallocs"):
			if limit := wv.(float64) * mallocSlack; gv.(float64) > limit {
				out = append(out, fmt.Sprintf("%s: %.0f allocations, above the ceiling %.0f (%.1fx the recorded %.0f)",
					k, gv, limit, mallocSlack, wv))
			}
		case wv != gv:
			out = append(out, fmt.Sprintf("%s: %v, the table holds %v", k, gv, wv))
		}
	}
	return out
}

// flatten maps every leaf of the table's JSON form to its dotted path.
func flatten(tab goldenTable) map[string]any {
	buf, err := json.Marshal(tab)
	if err != nil {
		panic(err)
	}
	var doc any
	if err := json.Unmarshal(buf, &doc); err != nil {
		panic(err)
	}
	out := map[string]any{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			out[prefix] = v
			return
		}
		for k, c := range m {
			walk(strings.TrimPrefix(prefix+"."+k, "."), c)
		}
	}
	walk("", doc)
	return out
}

// TestIndustrialScoringHeapBounded holds the small industrial fold's
// capped ScoreLists call to a heap budget computed from what it keeps: the
// retained candidates, per-v-pin bookkeeping, and one worker's scratch
// sized by the largest candidate set. Nothing in it may grow with the
// number of pairs scored.
func TestIndustrialScoringHeapBounded(t *testing.T) {
	insts := NewInstancesWorkers(industrialChallenges(t), 0)
	cfg := industrialSmokeConfig().withDefaults()
	cfg.Workers = 1
	spec, radius, err := TrainSpec(cfg, insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := model.Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	n := inst.N()
	filter := cfg.Filter(inst, radius)
	backend := pairs.ResolveBackend(art.Scorer(), false)
	stride := features.Width(cfg.Features)
	capPer := cfg.RetainCap(n)
	maxDeg := 0
	var ids []int32
	for a := 0; a < n; a++ {
		ids = filter.AppendAdmitted(ids[:0], a)
		maxDeg = max(maxDeg, len(ids))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, stats := pairs.ScoreLists(filter, backend, pairs.StreamOptions{
		Cap: capPer, ShardVpins: goldenShard, Workers: 1, Stride: stride})
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	const candidateBytes = 12 // pairs.Candidate: Other, P, D
	// Per v-pin: its list header, window, lock, truth probability,
	// candidate count, target mark and region slot, rounded up.
	const perVpin = 128
	scratch := maxDeg*(4+8*stride+8+8) + 2*8*min(maxDeg, capPer) + 4*n
	budget := uint64(candidateBytes*stats.Retained) + uint64(perVpin*n+scratch) + 64<<10
	t.Logf("ScoreLists allocated %d B for %d retained of %d pairs (%d v-pins, max degree %d); budget %d B",
		allocated, stats.Retained, stats.Pairs, n, maxDeg, budget)
	if allocated > budget {
		t.Errorf("ScoreLists allocated %d B, above the budget %d B from %d retained candidates and %d v-pins",
			allocated, budget, stats.Retained, n)
	}
	if stats.Retained >= stats.Pairs {
		t.Fatalf("the cap retained %d of %d pairs; the fold does not exercise the cap", stats.Retained, stats.Pairs)
	}
}
