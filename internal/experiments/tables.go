package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/ml"
	"repro/internal/priorwork"
)

// tableLayers is the split-layer order the paper's tables use.
var tableLayers = []int{8, 6, 4}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 2, 2, ' ', 0)
}

// fmtLoC renders a LoC size, with the paper's dash for unreachable targets.
func fmtLoC(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

func fmtFrac(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f%%", v*100)
}

func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// tableI reproduces Table I: for each split layer and design, the
// prior-work [5] baseline (mean LoC and accuracy) and, for each of the four
// configurations, the LoC needed to match the baseline's accuracy and the
// accuracy achieved at the baseline's LoC.
func tableI(s *Suite, r Results, w io.Writer) error {
	configs := attack.StandardConfigs()
	for _, layer := range tableLayers {
		chs, err := s.Challenges(layer)
		if err != nil {
			return err
		}
		prior, err := priorwork.RunLeaveOneOut(chs, 1.0, s.Seed)
		if err != nil {
			return err
		}
		results := r.All(configs, layer)

		fmt.Fprintf(w, "Table I - split layer %d\n", layer)
		tw := newTab(w)
		fmt.Fprint(tw, "design\t#v-pin\t[5]|LoC|\t[5]Acc\t")
		for _, cfg := range configs {
			fmt.Fprintf(tw, "%s|LoC|@Acc\t", cfg.Name)
		}
		for _, cfg := range configs {
			fmt.Fprintf(tw, "%sAcc@|LoC|\t", cfg.Name)
		}
		fmt.Fprintln(tw)

		type agg struct{ vp, loc5, acc5 float64 }
		var sum agg
		sumLoC := make([]float64, len(configs))
		sumAcc := make([]float64, len(configs))
		locReachable := make([]int, len(configs))
		for d := range chs {
			ev := func(i int) *attack.Evaluation { return results[i].Evals[d] }
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\t", chs[d].Design.Name, len(chs[d].VPins),
				prior[d].MeanLoC, fmtPct(prior[d].Accuracy))
			for i := range configs {
				loc := ev(i).LoCForAccuracy(prior[d].Accuracy)
				fmt.Fprintf(tw, "%s\t", fmtLoC(loc))
				if loc >= 0 {
					sumLoC[i] += loc
					locReachable[i]++
				}
			}
			for i := range configs {
				acc := ev(i).AccuracyAtLoC(prior[d].MeanLoC)
				fmt.Fprintf(tw, "%s\t", fmtPct(acc))
				sumAcc[i] += acc
			}
			fmt.Fprintln(tw)
			sum.vp += float64(len(chs[d].VPins))
			sum.loc5 += prior[d].MeanLoC
			sum.acc5 += prior[d].Accuracy
		}
		n := float64(len(chs))
		fmt.Fprintf(tw, "Avg\t%.0f\t%.1f\t%s\t", sum.vp/n, sum.loc5/n, fmtPct(sum.acc5/n))
		for i := range configs {
			if locReachable[i] > 0 {
				fmt.Fprintf(tw, "%.1f\t", sumLoC[i]/float64(locReachable[i]))
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		for i := range configs {
			fmt.Fprintf(tw, "%s\t", fmtPct(sumAcc[i]/n))
		}
		fmt.Fprintln(tw)
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

// tableIIRuns declares Table II's runs: Bagging over RandomTree (the
// predecessor [18]) and over REPTree (this paper) under Imp-7, at split
// layers 8 and 6.
func tableIIRuns() ([]attack.Config, []int) {
	rf := attack.WithBase(attack.Imp7(), ml.RandomTree, 0)
	rf.Name = "Imp-7-RandomTree"
	return []attack.Config{rf, attack.Imp7()}, []int{8, 6}
}

// tableII reproduces Table II: Bagging with RandomTree (the predecessor
// [18]) against Bagging with REPTree (this paper) under Imp-7, reporting
// the threshold-0.5 operating point and runtime for split layers 8 and 6.
func tableII(_ *Suite, r Results, w io.Writer) error {
	configs, layers := tableIIRuns()
	for _, layer := range layers {
		rfRes, repRes := r.Result(configs[0], layer, 0), r.Result(configs[1], layer, 0)
		fmt.Fprintf(w, "Table II - split layer %d (Imp-7)\n", layer)
		tw := newTab(w)
		fmt.Fprintln(tw, "design\tRandomTree|LoC|\tRandomTreeAcc\tREPTree|LoC|\tREPTreeAcc")
		var a, b, c, d float64
		for i := range rfRes.Evals {
			e1, e2 := rfRes.Evals[i], repRes.Evals[i]
			fmt.Fprintf(tw, "%s\t%.1f\t%s\t%.1f\t%s\n", e1.Design,
				e1.MeanLoC(0.5), fmtPct(e1.Accuracy(0.5)),
				e2.MeanLoC(0.5), fmtPct(e2.Accuracy(0.5)))
			a += e1.MeanLoC(0.5)
			b += e1.Accuracy(0.5)
			c += e2.MeanLoC(0.5)
			d += e2.Accuracy(0.5)
		}
		n := float64(len(rfRes.Evals))
		fmt.Fprintf(tw, "Avg\t%.1f\t%s\t%.1f\t%s\n", a/n, fmtPct(b/n), c/n, fmtPct(d/n))
		fmt.Fprintf(tw, "Runtime\t%v\t\t%v\t\n",
			(rfRes.MeanTrainDur() + rfRes.MeanTestDur()).Round(1e6),
			(repRes.MeanTrainDur() + repRes.MeanTestDur()).Round(1e6))
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

// tableIIIRuns declares Table III's runs: Imp-11 with and without
// two-level pruning at split layer 8.
func tableIIIRuns() ([]attack.Config, []int) {
	two := attack.WithTwoLevel(attack.Imp11())
	two.Name = "Imp-11-2L"
	return []attack.Config{two, attack.Imp11()}, []int{8}
}

// tableIII reproduces Table III: two-level pruning against no pruning with
// Imp-11 at split layer 8, at the threshold-0.5 operating point.
func tableIII(_ *Suite, r Results, w io.Writer) error {
	configs, layers := tableIIIRuns()
	twoRes, plainRes := r.Result(configs[0], layers[0], 0), r.Result(configs[1], layers[0], 0)
	fmt.Fprintln(w, "Table III - split layer 8 (Imp-11)")
	tw := newTab(w)
	fmt.Fprintln(tw, "design\t2-level|LoC|\t2-levelAcc\tnoPrune|LoC|\tnoPruneAcc")
	var a, b, c, d float64
	for i := range twoRes.Evals {
		e1, e2 := twoRes.Evals[i], plainRes.Evals[i]
		fmt.Fprintf(tw, "%s\t%.2f\t%s\t%.2f\t%s\n", e1.Design,
			e1.MeanLoC(0.5), fmtPct(e1.Accuracy(0.5)),
			e2.MeanLoC(0.5), fmtPct(e2.Accuracy(0.5)))
		a += e1.MeanLoC(0.5)
		b += e1.Accuracy(0.5)
		c += e2.MeanLoC(0.5)
		d += e2.Accuracy(0.5)
	}
	n := float64(len(twoRes.Evals))
	fmt.Fprintf(tw, "Avg\t%.2f\t%s\t%.2f\t%s\n", a/n, fmtPct(b/n), c/n, fmtPct(d/n))
	fmt.Fprintf(tw, "Runtime\t%v\t\t%v\t\n",
		(twoRes.MeanTrainDur() + twoRes.MeanTestDur()).Round(1e6),
		(plainRes.MeanTrainDur() + plainRes.MeanTestDur()).Round(1e6))
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// tableIVConfigs returns the configurations evaluated at a layer: the four
// standard ones everywhere, plus the "Y" variants at the highest via layer.
func tableIVConfigs(layer int) []attack.Config {
	configs := attack.StandardConfigs()
	if layer == 8 {
		configs = append(configs, attack.StandardConfigsY()...)
	}
	return configs
}

// tableIVSpecs expands the runs Tables IV and V and Fig. 9 share: every
// tableIVConfigs configuration at its layer.
func tableIVSpecs() []RunSpec {
	var out []RunSpec
	for _, layer := range tableLayers {
		out = append(out, crossLayers(tableIVConfigs(layer), []int{layer})...)
	}
	return out
}

// tableIV reproduces Table IV: for every configuration and split layer, the
// LoC fraction needed for average accuracies {95, 90, 80, 50}%, the average
// accuracy at LoC fractions {0.01, 0.1, 1, 10}%, and the mean runtime.
func tableIV(_ *Suite, r Results, w io.Writer) error {
	accTargets := []float64{0.95, 0.90, 0.80, 0.50}
	fracs := []float64{0.0001, 0.001, 0.01, 0.10}
	for _, layer := range tableLayers {
		fmt.Fprintf(w, "Table IV - split layer %d\n", layer)
		tw := newTab(w)
		fmt.Fprint(tw, "config\t")
		for _, a := range accTargets {
			fmt.Fprintf(tw, "frac@%.0f%%\t", a*100)
		}
		for _, f := range fracs {
			fmt.Fprintf(tw, "acc@%.2f%%\t", f*100)
		}
		fmt.Fprintln(tw, "runtime")
		for _, cfg := range tableIVConfigs(layer) {
			res := r.Result(cfg, layer, 0)
			fmt.Fprintf(tw, "%s\t", cfg.Name)
			for _, a := range accTargets {
				fmt.Fprintf(tw, "%s\t", fmtFrac(attack.AggregateLoCFracForAccuracy(res.Evals, a, 0.14)))
			}
			for _, f := range fracs {
				fmt.Fprintf(tw, "%s\t", fmtPct(attack.AggregateAccuracyAtLoCFrac(res.Evals, f)))
			}
			fmt.Fprintf(tw, "%v\n", (res.MeanTrainDur() + res.MeanTestDur()).Round(1e6))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

// tableV reproduces Table V: proximity-attack success rates per design for
// the naive nearest-neighbour baseline [9], the regression baseline [5],
// and each configuration with both the fixed-threshold PA of [18] and the
// validation-based PA of this paper.
func tableV(s *Suite, r Results, w io.Writer) error {
	for _, layer := range tableLayers {
		chs, err := s.Challenges(layer)
		if err != nil {
			return err
		}
		prior, err := priorwork.RunLeaveOneOut(chs, 1.0, s.Seed)
		if err != nil {
			return err
		}
		configs := tableIVConfigs(layer)
		outcomes := make([][]attack.PAOutcome, len(configs))
		for i, cfg := range configs {
			outcomes[i] = r.PA(cfg, layer, 0)
		}

		fmt.Fprintf(w, "Table V - split layer %d\n", layer)
		tw := newTab(w)
		fmt.Fprint(tw, "design\t[9]NN\t[5]PA\t")
		for _, cfg := range configs {
			fmt.Fprintf(tw, "%s-fix\t%s-val\t", cfg.Name, cfg.Name)
		}
		fmt.Fprintln(tw)
		nnSum, p5Sum := 0.0, 0.0
		fixSum := make([]float64, len(configs))
		valSum := make([]float64, len(configs))
		for d := range chs {
			nn := s.nnPA(layer, d)
			fmt.Fprintf(tw, "%s\t%s\t%s\t", chs[d].Design.Name, fmtPct(nn), fmtPct(prior[d].PASuccess))
			nnSum += nn
			p5Sum += prior[d].PASuccess
			for i := range configs {
				o := outcomes[i][d]
				fmt.Fprintf(tw, "%s\t%s\t", fmtPct(o.FixedSuccess), fmtPct(o.Success))
				fixSum[i] += o.FixedSuccess
				valSum[i] += o.Success
			}
			fmt.Fprintln(tw)
		}
		n := float64(len(chs))
		fmt.Fprintf(tw, "Avg\t%s\t%s\t", fmtPct(nnSum/n), fmtPct(p5Sum/n))
		for i := range configs {
			fmt.Fprintf(tw, "%s\t%s\t", fmtPct(fixSum[i]/n), fmtPct(valSum[i]/n))
		}
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "ValTime\t\t\t")
		for i := range configs {
			var dur float64
			for _, o := range outcomes[i] {
				dur += o.ValidationDur.Seconds()
			}
			fmt.Fprintf(tw, "\t%.1fs\t", dur/n)
		}
		fmt.Fprintln(tw)
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

// noiseRuns declares the runs Table VI and Fig. 10 share: Imp-11 under
// Gaussian y-noise obfuscation of SD = 0, 1 and 2 % of the die height, at
// split layers 6 and 4.
func noiseRuns() (cfg attack.Config, layers []int, sds []float64) {
	return attack.Imp11(), []int{6, 4}, []float64{0, 0.01, 0.02}
}

// noiseSpecs expands noiseRuns into run specs.
func noiseSpecs() []RunSpec {
	cfg, layers, sds := noiseRuns()
	var out []RunSpec
	for _, layer := range layers {
		for _, sd := range sds {
			out = append(out, RunSpec{Config: cfg, Layer: layer, Noise: sd})
		}
	}
	return out
}

// tableVI reproduces Table VI: validated proximity-attack success with
// Gaussian y-noise obfuscation at SD = 0, 1 and 2 % of the die height, for
// split layers 6 and 4 with Imp-11.
func tableVI(_ *Suite, r Results, w io.Writer) error {
	cfg, layers, sds := noiseRuns()
	for _, layer := range layers {
		fmt.Fprintf(w, "Table VI - split layer %d (Imp-11)\n", layer)
		tw := newTab(w)
		fmt.Fprintln(tw, "design\tno-noise\tSD=1%\tSD=2%")
		rows := map[string][]float64{}
		var names []string
		for _, sd := range sds {
			for _, o := range r.PA(cfg, layer, sd) {
				if _, ok := rows[o.Design]; !ok {
					names = append(names, o.Design)
				}
				rows[o.Design] = append(rows[o.Design], o.Success)
			}
		}
		avgs := make([]float64, len(sds))
		for _, name := range names {
			fmt.Fprintf(tw, "%s", name)
			for i, v := range rows[name] {
				fmt.Fprintf(tw, "\t%s", fmtPct(v))
				avgs[i] += v
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprint(tw, "Avg")
		for _, v := range avgs {
			fmt.Fprintf(tw, "\t%s", fmtPct(v/float64(len(names))))
		}
		fmt.Fprintln(tw)
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}
