package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/pairs"
	"repro/internal/rng"
)

// batchSpec describes a batch workload: a researcher's cold attack run on a
// generated suite, with no model store, on one engine worker so that the
// second vCPU is left to the garbage collector and the harness.
type batchSpec struct {
	name  string
	tier  string
	scale float64
	layer int
	// target is the held-out design of a one-fold op; empty makes the op a
	// full leave-one-out through attack.RunInstances.
	target string
	// traceDesign is the fold whose scoring the traced run re-drives and
	// whose v-pins the scalar oracle re-scores.
	traceDesign string
	config      func() attack.Config
	// minOps is the fewest ops a measured phase runs. Two compare every
	// op's digest with another's within the run; a traced run needs one,
	// because its traced op is compared with the untraced one.
	minOps int
}

// oracleSample is how many v-pins of the trace fold the scalar oracle
// re-scores in every run.
const oracleSample = 256

// looL6 is the paper's main attack as a researcher runs it: a cold
// leave-one-out on the standard suite at split layer 6.
var looL6 = batchSpec{
	name: "loo-l6", tier: layout.TierStandard, scale: 1.0, layer: 6,
	traceDesign: "sb10", config: attack.Imp11, minOps: 2,
}

// industrialL4 is one cold fold on a 100k-cell-class design at split layer
// 4, with the committed industrial baseline's retention cap and region size.
// Its op lasts 15–40 s depending on the host's speed, so a run may make only
// one. Its digest is then compared with the traced op's in traced runs and
// with digests.json at the default seed.
var industrialL4 = batchSpec{
	name: "industrial-l4", tier: layout.TierIndustrial, scale: 0.25, layer: 4,
	target: "sbx1", traceDesign: "sbx1", minOps: 1,
	config: func() attack.Config {
		c := attack.Imp11()
		c.MaxLoCCount = 256
		c.ShardVpins = 2048
		return c
	},
}

// batch is one run of a batch workload.
type batch struct {
	spec   batchSpec
	cfg    attack.Config
	suite  *suite
	folds  []int // the folds one op computes
	trace  int   // index of traceDesign
	sample []int // the oracle's v-pins of the trace fold
	// first holds the first op's digests, last the newest op's evaluation
	// lists of the oracle's v-pins, and model the newest one-fold op's
	// trained model.
	first map[string]string
	last  [][]pairs.Candidate
	model *foldModel
}

func newBatch(spec batchSpec) *batch { return &batch{spec: spec} }

func (b *batch) setup(rs *runState, tr *tracer) error {
	b.cfg = b.spec.config()
	b.cfg.Seed = rs.seed
	b.cfg.Workers = 1
	s, err := buildSuite(tr, layout.SuiteConfig{Tier: b.spec.tier, Scale: b.spec.scale, Seed: suiteSeed}, b.spec.layer)
	if err != nil {
		return err
	}
	b.suite = s
	if b.trace, err = s.index(b.spec.traceDesign); err != nil {
		return err
	}
	if b.spec.target == "" {
		for i := range s.insts {
			b.folds = append(b.folds, i)
		}
	} else {
		t, err := s.index(b.spec.target)
		if err != nil {
			return err
		}
		b.folds = []int{t}
	}
	r := rand.New(rand.NewSource(rng.Mix(rs.seed, streamOracle)))
	b.sample = r.Perm(s.insts[b.trace].N())
	if len(b.sample) > oracleSample {
		b.sample = b.sample[:oracleSample]
	}
	return nil
}

// op runs one cold op and returns its evaluations, one per fold.
func (b *batch) op() ([]*attack.Evaluation, error) {
	if b.spec.target == "" {
		res, err := attack.RunInstances(b.cfg, b.suite.insts)
		if err != nil {
			return nil, err
		}
		return res.Evals, nil
	}
	ev, fm, err := runFold(nil, b.cfg, b.suite.insts, b.folds[0])
	b.model = fm
	return []*attack.Evaluation{ev}, err
}

// measure runs cold ops until the next one, judged by the last one's
// length, would end past --seconds, and at least minOps. A run thus
// measures about --seconds of work however fast the host is, and reports
// the median op.
func (b *batch) measure(rs *runState) phase {
	minOps := b.spec.minOps
	if rs.traced {
		minOps = 1
	}
	var walls, rates, cpus []float64
	var last time.Duration
	start := time.Now()
	for len(walls) < minOps || time.Since(start)+last <= rs.seconds {
		// Every op starts from a collected heap, as in a fresh process: the
		// garbage of set-up and of the previous op is the harness's, and
		// whether a collection happened to clear it would otherwise move
		// peak RSS from run to run.
		runtime.GC()
		t, c := time.Now(), processCPU()
		evs, err := b.op()
		last = time.Since(t)
		cpus = append(cpus, (processCPU() - c).Seconds())
		rs.op(err)
		if err != nil {
			break // ops are deterministic: a failed op fails again
		}
		digests := map[string]string{}
		var scored int64
		for _, ev := range evs {
			scored += ev.PairsScored
			digests[ev.Design] = ev.Digest()
		}
		walls = append(walls, last.Seconds())
		rates = append(rates, float64(scored)/last.Seconds())
		if b.first == nil {
			b.first = digests
		} else {
			rs.check(equalDigests(digests, b.first), "op %d digests differ from op 1's", len(walls))
		}
		// Keep copies of the oracle's v-pins only: a list shares its
		// backing array with its whole scoring region, and the op's lists
		// must be garbage before the next op runs.
		ev := evs[slices.Index(b.folds, b.trace)]
		b.last = make([][]pairs.Candidate, ev.N)
		for _, a := range b.sample {
			b.last[a] = slices.Clone(ev.Cands[a])
		}
	}
	return phase{ops: len(walls), wall: median(walls), rate: median(rates),
		detail: fmt.Sprintf("folds_per_op=%d op_s=%.4g cpu_s=%.4g", len(b.folds), walls, cpus)}
}

// check re-scores the oracle's v-pins of the last op's trace fold through
// pairs.ScoreLists with the scalar backend, on the fold's model as
// model.Train builds it (a one-fold op keeps the model it scored with).
func (b *batch) check(rs *runState) {
	if b.last == nil {
		rs.check(false, "no op completed")
		return
	}
	fm := b.model
	if fm == nil {
		spec, radius, err := attack.TrainSpec(b.cfg, b.suite.insts, b.trace)
		if err != nil {
			rs.check(false, "train spec: %v", err)
			return
		}
		art, _, err := model.Train(spec)
		if err != nil {
			rs.check(false, "model.Train: %v", err)
			return
		}
		fm = &foldModel{spec: spec, radius: radius, scorer: art.Scorer()}
	}
	lists := oracleLists(fm, b.suite.insts[b.trace], b.sample)
	bad := sameLists(lists, b.last, b.sample)
	rs.check(bad < 0, "%s: scalar oracle differs from the engine at v-pin %d", b.spec.traceDesign, bad)
}

func (b *batch) digests() map[string]string { return b.first }

func (b *batch) close() {}

// traced runs one op through its public calls with a span each, then
// re-drives generation, training of every fold of the op, and scoring of
// the trace fold.
func (b *batch) traced(rs *runState, tr *tracer, untraced phase) map[string]float64 {
	out := map[string]float64{}
	start := time.Now()
	evs := map[int]*attack.Evaluation{}
	var err error
	for _, f := range b.folds {
		if evs[f], _, err = runFold(tr, b.cfg, b.suite.insts, f); err != nil {
			break
		}
	}
	wall := time.Since(start)
	rs.op(err)
	if err != nil {
		return out
	}
	out["trace.overhead_s"] = wall.Seconds() - untraced.wall
	digests := map[string]string{}
	for _, ev := range evs {
		digests[ev.Design] = ev.Digest()
	}
	rs.check(equalDigests(digests, b.first), "traced op digests differ from the untraced op's")
	redriveLayers(rs, tr, b.suite, b.cfg, b.folds, b.trace, evs[b.trace], out)
	return out
}

// equalDigests reports whether two digest maps are equal.
func equalDigests(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runFold trains and scores one fold through its public calls, each a span
// when tr is set: the train spec, model.Train, and scoring with
// attack.RunTargetArtifact — the same work attack.RunFoldInstances does,
// bit for bit.
func runFold(tr *tracer, cfg attack.Config, insts []*attack.Instance, fold int) (*attack.Evaluation, *foldModel, error) {
	root := tr.begin("attack.fold", -1, fold)
	defer tr.end(root)
	sp := tr.begin("attack.train_spec", root, fold)
	spec, radius, err := attack.TrainSpec(cfg, insts, fold)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("model.train", root, fold)
	art, _, err := model.Train(spec)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("attack.score", root, fold)
	ev, _, err := attack.RunTargetArtifact(cfg, insts, fold, art)
	tr.end(sp)
	return ev, &foldModel{spec: spec, radius: radius, scorer: art.Scorer()}, err
}

// redriveLayers re-drives generation of the suite, training of the given
// folds and scoring of the trace fold, checks each against the engine, and
// fills the pipeline layers' metrics from the spans.
func redriveLayers(rs *runState, tr *tracer, s *suite, cfg attack.Config, folds []int, trace int,
	engine *attack.Evaluation, out map[string]float64) {

	err := redriveGeneration(tr, s)
	rs.check(err == nil, "re-driven generation: %v", err)
	var fm *foldModel
	for _, f := range folds {
		m, err := redriveTraining(tr, cfg, s.insts, f)
		rs.check(err == nil, "re-driven training of fold %d: %v", f, err)
		if err == nil && f == trace {
			fm = m
		}
	}
	if fm == nil {
		return
	}
	target := s.insts[trace]
	sc := redriveScoring(tr, fm, target, trace)
	all := make([]int, target.N())
	for i := range all {
		all[i] = i
	}
	bad := sameLists(sc.lists, engine.Cands, all)
	rs.check(bad < 0, "re-driven scoring of %s differs from the engine at v-pin %d", target.Ch.Design.Name, bad)

	spans := tr.snapshot()
	self, _ := layerTotals(spans)
	dur := map[string]float64{}
	score := 0.0
	for _, sp := range spans {
		d := float64(sp.End-sp.Start) / 1e9
		dur[sp.Name] += d
		if sp.Name == "attack.score" && sp.Op == trace {
			score = d
		}
	}
	cells, vpins := 0, 0
	for i, d := range s.designs {
		cells += len(d.Netlist.Cells)
		vpins += s.insts[i].N()
	}
	counts := tr.countsSnapshot()
	out["layout.gen_s"] = dur["layout.design"]
	out["netlist.cells_s"] = self["netlist.cells"]
	out["place.place_s"] = self["place.place"]
	out["netlist.nets_s"] = self["netlist.nets"]
	out["route.route_s"] = self["route.route"]
	out["layout.cells"] = float64(cells)
	out["split.cut_s"] = self["split.cut"]
	out["split.vpins"] = float64(vpins)
	out["pairs.prep_s"] = self["pairs.prep"]
	out["model.sampling_s"] = self["model.sampling"]
	out["model.samples"] = counts["model.samples"]
	out["ml.train_s"] = self["ml.train"]
	out["ml.trees"] = counts["ml.trees"]
	out["ml.nodes"] = counts["ml.nodes"]
	out["pairs.enumerate_s"] = self["pairs.enumerate"]
	out["pairs.candidates"] = float64(sc.candidates)
	out["pairs.retain_s"] = self["pairs.retain"]
	out["pairs.retained"] = float64(sc.kept)
	out["pairs.retained_ratio"] = ratio(float64(sc.kept), float64(sc.candidates))
	out["pairs.regions"] = float64(engine.Regions)
	out["features.extract_s"] = self["pairs.gather"] - self["pairs.enumerate"]
	out["ml.kernel_s"] = self["ml.kernel"]
	out["pairs.rows"] = float64(sc.batchRows)
	out["pairs.batches"] = float64(sc.batches)
	out["ml.kernel_ns_per_row"] = ratio(self["ml.kernel"]*1e9, float64(sc.batchRows))
	out["attack.score_s"] = score
	out["pairs.coverage"] = ratio(self["pairs.gather"]+self["ml.kernel"]+self["pairs.retain"], score)
}
