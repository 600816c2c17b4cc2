package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/cell"
	"repro/internal/features"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/netlist"
	"repro/internal/pairs"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/split"
)

// The traced run re-drives three parts of the work through the layers'
// own public functions, so that each layer gets spans of its own:
// generation, training, and one fold's scoring. Each re-drive is checked
// to reproduce the engine's output bit for bit, which is what makes its
// spans a faithful breakdown of the engine's time.

// suite is one generated design suite cut at one split layer.
type suite struct {
	cfg     layout.SuiteConfig
	layer   int
	designs []*layout.Design
	insts   []*attack.Instance
}

// buildSuite generates, splits and prepares a suite through the engine's
// suite-level calls, each timed as one span.
func buildSuite(tr *tracer, cfg layout.SuiteConfig, layer int) (*suite, error) {
	sp := tr.begin("layout.suite", -1, 0)
	designs, err := layout.GenerateSuite(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	chs := make([]*split.Challenge, len(designs))
	for i, d := range designs {
		sp := tr.begin("split.cut", -1, 0)
		chs[i], err = split.NewChallenge(d, layer)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("pairs.prep", -1, 0)
	insts := attack.NewInstancesWorkers(chs, 0)
	tr.end(sp)
	return &suite{cfg: cfg, layer: layer, designs: designs, insts: insts}, nil
}

// index returns the position of the named design in the suite.
func (s *suite) index(design string) (int, error) {
	for i, d := range s.designs {
		if d.Name == design {
			return i, nil
		}
	}
	return -1, fmt.Errorf("design %q not in the %s suite", design, s.cfg.Tier)
}

// redriveGeneration regenerates every design of the suite stage by stage
// (cells, placement, nets, routing) and checks each against the design
// layout.Generate built, byte for byte in the layout file format.
func redriveGeneration(tr *tracer, s *suite) error {
	for i, p := range layout.SuiteProfiles(s.cfg) {
		sp := tr.begin("layout.design", -1, 0)
		d, err := generateStaged(tr, sp, p)
		tr.end(sp)
		if err != nil {
			return err
		}
		same, err := sameDesign(d, s.designs[i])
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("re-driven generation of %s differs from layout.Generate", p.Name)
		}
	}
	return nil
}

// generateStaged is layout.Generate as a sequence of timed stage calls.
func generateStaged(tr *tracer, parent int, p layout.Profile) (*layout.Design, error) {
	r := rand.New(rand.NewSource(p.Seed))
	lib := cell.DefaultLibrary()
	sp := tr.begin("netlist.cells", parent, 0)
	cells, err := netlist.GenerateCells(lib, netlist.CellMixConfig{
		NumCells: p.NumCells, NumMacros: p.NumMacros, SeqFraction: p.SeqFraction,
	}, r)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	nl := &netlist.Netlist{Lib: lib, Cells: cells}
	die := geom.R(0, 0, p.DieSize, p.DieSize)
	sp = tr.begin("place.place", parent, 0)
	pl, err := place.Place(nl, place.Config{
		Die: die, Clusters: p.Clusters, ClusterTightness: p.ClusterTightness, UtilisationTarget: 0.9,
	}, r)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	classes := make([]netlist.ReachClass, len(p.Reach))
	for i, rc := range p.Reach {
		classes[i] = netlist.ReachClass{Frac: rc.Frac, MeanReach: geom.Coord(rc.Reach * float64(p.DieSize))}
	}
	sp = tr.begin("netlist.nets", parent, 0)
	nets, err := netlist.GenerateNets(cells, pl.Origin, die, netlist.NetGenConfig{NumNets: p.NumNets, Classes: classes}, r)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	nl.Nets = nets
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	sp = tr.begin("route.route", parent, 0)
	routing, err := route.BuildRouting(nl, pl, route.Config{
		LayerFracs:   layerFracs(p.TrunkTargets, len(nets)),
		PromoteProb:  p.PromoteProb,
		EscapeJitter: p.EscapeJitter,
		DetourProb:   p.DetourProb,
	}, r)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &layout.Design{Name: p.Name, Netlist: nl, Placement: pl, Routing: routing}, nil
}

// layerFracs turns a profile's trunk targets into per-layer routing
// fractions the way layout.Generate does; sameDesign catches any drift.
func layerFracs(tt layout.TrunkTargets, totalNets int) [route.NumMetal + 1]float64 {
	var f [route.NumMetal + 1]float64
	n := float64(totalNets)
	f[9] = float64(tt.T9) / n
	f[8] = float64(tt.T78) / 2 / n
	f[7] = f[8]
	f[6] = float64(tt.T56) / 2 / n
	f[5] = f[6]
	rest := max(1-(f[9]+f[8]+f[7]+f[6]+f[5]), 0)
	f[4] = rest * 0.18
	f[3] = rest * 0.30
	f[2] = rest * 0.52
	return f
}

// sameDesign compares two designs in the layout file format.
func sameDesign(a, b *layout.Design) (bool, error) {
	var ha, hb [sha256.Size]byte
	for _, x := range []struct {
		d   *layout.Design
		sum *[sha256.Size]byte
	}{{a, &ha}, {b, &hb}} {
		var buf bytes.Buffer
		if err := layout.Save(&buf, x.d); err != nil {
			return false, err
		}
		*x.sum = sha256.Sum256(buf.Bytes())
	}
	return ha == hb, nil
}

// foldModel is one fold's trained model and the spec it was trained from.
type foldModel struct {
	spec   model.Spec
	radius float64
	scorer pairs.Scorer
}

// redriveTraining trains the fold's model stage by stage: sampling through
// model.TrainingSet and induction through the learner family, on the very
// random streams model.Train derives. Only one-level configurations are
// re-driven.
func redriveTraining(tr *tracer, cfg attack.Config, insts []*attack.Instance, fold int) (*foldModel, error) {
	spec, radius, err := attack.TrainSpec(cfg, insts, fold)
	if err != nil {
		return nil, err
	}
	if spec.Opts.TwoLevel {
		return nil, fmt.Errorf("re-driven training covers one-level configurations only")
	}
	sp := tr.begin("model.sampling", -1, fold)
	ds := model.TrainingSet(nil, spec.Opts, spec.Insts, spec.RadiusNorm, nil,
		rng.Derive(spec.Seed, model.UnitSampling, int64(spec.Fold)))
	tr.end(sp)
	fam, err := model.FamilyByName(spec.Opts.Family)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("ml.train", -1, fold)
	sc, err := fam.Train(model.TrainContext{
		Opts: spec.Opts, Seed: spec.Seed, Unit: model.UnitLevel1, Fold: spec.Fold, Workers: cfg.Workers,
	}, ds)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.count("model.samples", ds.Len())
	if e, ok := sc.(*ml.Ensemble); ok {
		tr.count("ml.trees", e.Trees())
		tr.count("ml.nodes", e.Nodes())
	}
	return &foldModel{spec: spec, radius: radius, scorer: sc}, nil
}

// scoring holds what re-driven scoring counted.
type scoring struct {
	lists              [][]pairs.Candidate
	candidates, kept   int64
	batches, batchRows int64
}

// retainCap is the engine's per-v-pin list bound for a design of n v-pins.
func retainCap(opts model.TrainOptions, n int) int {
	c := pairs.LoCCap(n, opts.MaxLoCFrac)
	if opts.MaxLoCCount > 0 && opts.MaxLoCCount < c {
		c = opts.MaxLoCCount
	}
	return c
}

// redriveScoring scores every v-pin of the fold's target one at a time:
// Filter.Enumerate alone (to time enumeration), then Gatherer.Gather,
// Gatherer.Score, and retention through a TopK, each call its own span
// under a per-v-pin span. The lists must equal the engine's.
func redriveScoring(tr *tracer, fm *foldModel, target *attack.Instance, fold int) *scoring {
	filter := fm.spec.Opts.Filter(target, fm.radius)
	backend := pairs.ResolveBackend(fm.scorer, false)
	capPer := retainCap(fm.spec.Opts, target.N())
	g := pairs.Gatherer{Stride: features.Width(fm.spec.Opts.Features)}
	var h pairs.TopK
	out := &scoring{lists: make([][]pairs.Candidate, target.N())}
	root := tr.begin("pairs.fold", -1, fold)
	for a := 0; a < target.N(); a++ {
		vp := tr.begin("pairs.vpin", root, fold)
		sp := tr.begin("pairs.enumerate", vp, fold)
		filter.Enumerate(a, func(int32) {})
		tr.end(sp)
		sp = tr.begin("pairs.gather", vp, fold)
		g.Gather(filter, a)
		tr.end(sp)
		sp = tr.begin("ml.kernel", vp, fold)
		g.Score(backend)
		tr.end(sp)
		sp = tr.begin("pairs.retain", vp, fold)
		h.Reset(capPer)
		for k, b := range g.Ids {
			h.Push(pairs.Candidate{Other: b, P: float32(g.P[k]), D: g.D[k]})
		}
		out.lists[a] = append([]pairs.Candidate(nil), h.Sorted()...)
		tr.end(sp)
		tr.end(vp)
		out.candidates += int64(len(g.Ids))
		out.kept += int64(len(out.lists[a]))
	}
	tr.end(root)
	out.batches, out.batchRows = g.Batches, g.BatchRows
	return out
}

// sameLists reports the first v-pin whose candidate lists differ, or -1.
func sameLists(got, want [][]pairs.Candidate, vpins []int) int {
	for _, a := range vpins {
		if len(got[a]) != len(want[a]) {
			return a
		}
		for k := range got[a] {
			if got[a][k] != want[a][k] {
				return a
			}
		}
	}
	return -1
}

// oracleLists scores the listed v-pins of the target through
// pairs.ScoreLists with the scalar oracle backend.
func oracleLists(fm *foldModel, target *attack.Instance, vpins []int) [][]pairs.Candidate {
	lists, _ := pairs.ScoreLists(fm.spec.Opts.Filter(target, fm.radius), pairs.ResolveBackend(fm.scorer, true),
		pairs.StreamOptions{
			Targets: vpins,
			Cap:     retainCap(fm.spec.Opts, target.N()),
			Workers: 1,
			Stride:  features.Width(fm.spec.Opts.Features),
		})
	return lists
}
