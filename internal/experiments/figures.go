package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/priorwork"
	"repro/internal/split"
)

// normMatchDists returns the ManhattanVpin distance of every true match in
// the challenge, normalised by die width.
func normMatchDists(ch *split.Challenge) []float64 {
	dieW := float64(ch.Design.Die().Width())
	var out []float64
	for i := range ch.VPins {
		v := &ch.VPins[i]
		if v.Match > i {
			out = append(out, float64(v.Pos.Manhattan(ch.VPins[v.Match].Pos))/dieW)
		}
	}
	return out
}

// fig4 reproduces Fig. 4: for each design, the CDF of the normalised
// matched-pair ManhattanVpin over the *other* four designs at split layer 6
// — the distribution the Imp neighborhood radius is read from.
func fig4(s *Suite, _ Results, w io.Writer) error {
	chs, err := s.Challenges(6)
	if err != nil {
		return err
	}
	probes := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0}
	fmt.Fprintln(w, "Fig. 4 - CDF of normalised ManhattanVpin of true matches (split layer 6)")
	fmt.Fprintln(w, "Each row: held-out design; values: distance below which the given fraction")
	fmt.Fprintln(w, "of the remaining four designs' matched pairs fall (fraction of die width).")
	tw := newTab(w)
	fmt.Fprint(tw, "design\t")
	for _, p := range probes {
		fmt.Fprintf(tw, "p%.0f%%\t", p*100)
	}
	fmt.Fprintln(tw)
	for target := range chs {
		var pool []float64
		for i, ch := range chs {
			if i != target {
				pool = append(pool, normMatchDists(ch)...)
			}
		}
		fmt.Fprintf(tw, "%s\t", chs[target].Design.Name)
		for _, q := range ml.CDF(pool, probes) {
			fmt.Fprintf(tw, "%.3f\t", q)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// figTrainingSamples generates Imp-style training samples for a single
// design (neighborhood radius taken from the other designs, as in the
// leave-one-out discipline).
func figTrainingSamples(s *Suite, layer, design int) (*ml.Dataset, error) {
	insts, err := s.Instances(layer, 0)
	if err != nil {
		return nil, err
	}
	var trainInsts []*attack.Instance
	for i, inst := range insts {
		if i != design {
			trainInsts = append(trainInsts, inst)
		}
	}
	cfg := attack.Imp11()
	cfg.Seed = s.Seed
	radius := attack.NeighborRadiusNorm(trainInsts, 0.90)
	rng := rand.New(rand.NewSource(s.Seed + int64(layer*100+design)))
	ds := attack.TrainingSet(cfg, []*attack.Instance{insts[design]}, radius, nil, rng)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// fig7 reproduces Fig. 7: the information gain, absolute correlation
// coefficient, and Fisher's discriminant ratio of all 11 features, per
// design, for split layers 4, 6 and 8.
func fig7(s *Suite, _ Results, w io.Writer) error {
	metrics := []struct {
		name string
		f    func(xs []float64, ys []bool) float64
	}{
		{"InfoGain", func(xs []float64, ys []bool) float64 { return ml.InfoGain(xs, ys, 10) }},
		{"|Corr|", func(xs []float64, ys []bool) float64 {
			c := ml.CorrCoef(xs, ys)
			if c < 0 {
				c = -c
			}
			return c
		}},
		{"Fisher", ml.FisherRatio},
	}
	for _, layer := range []int{4, 6, 8} {
		chs, err := s.Challenges(layer)
		if err != nil {
			return err
		}
		// Per-design datasets.
		sets := make([]*ml.Dataset, len(chs))
		for d := range chs {
			if sets[d], err = figTrainingSamples(s, layer, d); err != nil {
				return err
			}
		}
		for _, m := range metrics {
			fmt.Fprintf(w, "Fig. 7 - %s, split layer %d\n", m.name, layer)
			tw := newTab(w)
			fmt.Fprint(tw, "feature\t")
			for _, ch := range chs {
				fmt.Fprintf(tw, "%s\t", ch.Design.Name)
			}
			fmt.Fprintln(tw)
			for f := 0; f < features.NumFeatures; f++ {
				fmt.Fprintf(tw, "%s\t", features.Names[f])
				for d := range chs {
					v := m.f(sets[d].Column(f), sets[d].Y)
					fmt.Fprintf(tw, "%.4f\t", v)
				}
				fmt.Fprintln(tw)
			}
			tw.Flush()
			fmt.Fprintln(w)
		}
	}
	return nil
}

// fig8 reproduces Fig. 8: per-feature class-conditional distributions of
// the pooled layer-6 training samples, as 10-bin histograms plus summary
// statistics.
func fig8(s *Suite, _ Results, w io.Writer) error {
	chs, err := s.Challenges(6)
	if err != nil {
		return err
	}
	pooled := &ml.Dataset{}
	for d := range chs {
		ds, err := figTrainingSamples(s, 6, d)
		if err != nil {
			return err
		}
		pooled.X = append(pooled.X, ds.X...)
		pooled.Y = append(pooled.Y, ds.Y...)
	}
	fmt.Fprintln(w, "Fig. 8 - feature distributions in the pooled layer-6 training set")
	for f := 0; f < features.NumFeatures; f++ {
		col := pooled.Column(f)
		var match, non []float64
		for i, v := range col {
			if pooled.Y[i] {
				match = append(match, v)
			} else {
				non = append(non, v)
			}
		}
		counts, edges := ml.Histogram(col, 10)
		_ = counts
		fmt.Fprintf(w, "%s: match mean=%.1f sd=%.1f | non-match mean=%.1f sd=%.1f\n",
			features.Names[f], meanOf(match), sdOf(match), meanOf(non), sdOf(non))
		fmt.Fprintf(w, "  bins [%.1f .. %.1f]:\n", edges[0], edges[len(edges)-1])
		fmt.Fprintf(w, "  match:     %v\n", histCounts(match, edges))
		fmt.Fprintf(w, "  non-match: %v\n", histCounts(non, edges))
	}
	fmt.Fprintln(w)
	return nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sdOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := meanOf(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// histCounts bins xs into the given shared edges.
func histCounts(xs []float64, edges []float64) []int {
	n := len(edges) - 1
	counts := make([]int, n)
	lo, hi := edges[0], edges[n]
	width := (hi - lo) / float64(n)
	if width == 0 {
		counts[0] = len(xs)
		return counts
	}
	for _, v := range xs {
		b := int((v - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return counts
}

// fig9 reproduces Fig. 9: the LoC-fraction vs average-accuracy trade-off
// curves of every configuration (plus the Y variants at layer 8) and the
// prior-work [5] reference curve, for split layers 8, 6 and 4.
func fig9(s *Suite, r Results, w io.Writer) error {
	fracs := attack.CurveFractions()
	slacks := []float64{0.1, 0.25, 0.5, 1, 2, 4, 8}
	for _, layer := range []int{8, 6, 4} {
		chs, err := s.Challenges(layer)
		if err != nil {
			return err
		}
		configs := tableIVConfigs(layer)
		curves := make([][]attack.TradeoffPoint, len(configs))
		for i, cfg := range configs {
			curves[i] = attack.Curve(r.Result(cfg, layer, 0).Evals, fracs)
		}
		priorCurve, err := priorwork.Curve(chs, slacks, s.Seed)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "Fig. 9 - split layer %d: accuracy vs LoC fraction\n", layer)
		tw := newTab(w)
		fmt.Fprint(tw, "LoCfrac\t")
		for _, cfg := range configs {
			fmt.Fprintf(tw, "%s\t", cfg.Name)
		}
		fmt.Fprintln(tw)
		for pi, f := range fracs {
			fmt.Fprintf(tw, "%.4f%%\t", f*100)
			for i := range configs {
				fmt.Fprintf(tw, "%.4f\t", curves[i][pi].Accuracy)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(w, "Prior work [5] (slack sweep):")
		tw = newTab(w)
		fmt.Fprintln(tw, "LoCfrac\taccuracy")
		for _, p := range priorCurve {
			fmt.Fprintf(tw, "%.4f%%\t%.4f\n", p.LoCFrac*100, p.Accuracy)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

// fig10 reproduces Fig. 10: Imp-11 trade-off curves with and without
// obfuscation noise (SD = 1 and 2 % of die height) at split layers 6 and 4.
func fig10(_ *Suite, r Results, w io.Writer) error {
	fracs := attack.CurveFractions()
	cfg, layers, sds := noiseRuns()
	for _, layer := range layers {
		curves := make([][]attack.TradeoffPoint, len(sds))
		for i, sd := range sds {
			curves[i] = attack.Curve(r.Result(cfg, layer, sd).Evals, fracs)
		}
		fmt.Fprintf(w, "Fig. 10 - split layer %d (Imp-11): accuracy vs LoC fraction\n", layer)
		tw := newTab(w)
		fmt.Fprintln(tw, "LoCfrac\tno-noise\tSD=1%\tSD=2%")
		for pi, f := range fracs {
			fmt.Fprintf(tw, "%.4f%%\t", f*100)
			for i := range sds {
				fmt.Fprintf(tw, "%.4f\t", curves[i][pi].Accuracy)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}
