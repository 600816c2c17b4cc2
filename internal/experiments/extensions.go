package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obfuscate"
	"repro/internal/sim"
	"repro/internal/split"
	"repro/internal/timing"
)

// The ext* experiments go beyond the paper: a classifier bake-off including
// a linear model, and a defender-side evaluation of layout-level
// countermeasures with their wirelength cost. They are registered alongside
// the paper's tables and figures.

// extExperiments returns the extension experiments.
func extExperiments() []Experiment {
	return []Experiment{
		{ID: "ext-classifiers", Title: "Extension: classifier bake-off (Bagging/REPTree vs RandomForest vs logistic)", Runs: crossLayers(extClassifiersRuns()), render: extClassifiers},
		{ID: "ext-dl", Title: "Extension: DL-perspective attack (MLP + routing hints + list-wise ranking) vs Bagging", Runs: crossLayers(extDLRuns()), render: extDL},
		{ID: "ext-defense", Title: "Extension: layout-level defenses (routing perturbation, wire lifting, trunk jogs) vs attack", Runs: crossLayers(extDefenseRuns()), render: extDefense},
		{ID: "ext-recovery", Title: "Extension: functional netlist recovery from PA pairings (logic simulation)", Runs: withPA(crossLayers(extRecoveryRuns())), render: extRecovery},
	}
}

// extDLRuns declares ext-dl's runs: the paper's strongest Bagging pipeline
// against the MLP family (with the routing-hint feature block) and the same
// MLP with the list-wise ranking head, at the top split layer.
func extDLRuns() ([]attack.Config, []int) {
	return []attack.Config{attack.Imp11(), attack.DLMLP(), attack.DLMLPRank()}, []int{8}
}

// extDL recasts the DL-perspective split-manufacturing attack (Li et al.,
// DAC'19/TCAD'20) onto this engine at the top split layer: a multi-layer
// perceptron over the widened feature set including the routing-hint block,
// with and without the list-wise ranking head, against the paper's Bagging
// baseline. CCR is the correct-connection rate — the fraction of v-pins
// whose true partner ranks first in the candidate list (accuracy at |LoC|=1).
// The ranking head softmax-normalises each candidate list, which is monotone
// per list: CCR and accuracy-at-K match the plain MLP exactly, while the
// scores become per-list probability distributions (visible in the AUC,
// which pools scores across lists).
func extDL(_ *Suite, r Results, w io.Writer) error {
	configs, layers := extDLRuns()
	layer := layers[0]
	results := r.All(configs, layer)
	fmt.Fprintf(w, "Extension: DL-perspective attack - split layer %d\n", layer)
	tw := newTab(w)
	fmt.Fprintln(tw, "model\tCCR\tacc@|LoC|=5\tacc@|LoC|=10\tpair AUC\truntime")
	for ci, cfg := range configs {
		res := results[ci]
		var ccr, a5, a10, auc float64
		for _, ev := range res.Evals {
			ccr += ev.AccuracyAtK(1)
			a5 += ev.AccuracyAtK(5)
			a10 += ev.AccuracyAtK(10)
			auc += pairAUC(ev)
		}
		n := float64(len(res.Evals))
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.4f\t%v\n", cfg.Name,
			fmtPct(ccr/n), fmtPct(a5/n), fmtPct(a10/n), auc/n,
			(res.MeanTrainDur() + res.MeanTestDur()).Round(1e6))
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// extRecoveryRuns declares ext-recovery's run: Imp-9Y at split layer 8.
func extRecoveryRuns() ([]attack.Config, []int) {
	return []attack.Config{attack.WithY(attack.Imp9())}, []int{8}
}

// extRecovery goes past the paper's structural PA metric: it rewires each
// design's BEOL according to the attacker's proximity-attack picks and
// simulates the reconstruction against the reference on random input
// vectors. Functional recovery exceeds structural success because wrong
// guesses often wire in correlated signals.
func extRecovery(s *Suite, r Results, w io.Writer) error {
	const vectors = 16
	configs, layers := extRecoveryRuns()
	cfg, layer := configs[0], layers[0]
	chs, err := s.Challenges(layer, 0)
	if err != nil {
		return err
	}
	res, pa := r.Result(cfg, layer, 0), r.PA(cfg, layer, 0)

	fmt.Fprintf(w, "Extension: netlist recovery - split layer %d (Imp-9Y picks, %d vectors)\n", layer, vectors)
	tw := newTab(w)
	fmt.Fprintln(tw, "design\tstructural (PA)\tfunctional\tchance-adjusted\tobservation pins")
	var sSum, fSum float64
	for d, ch := range chs {
		rng := rand.New(rand.NewSource(s.Prov.Seed + int64(d)*13))
		answers := res.Evals[d].PAAnswers(pa[d].BestFrac, rng)
		pairing := map[int]int{}
		for i := range ch.VPins {
			if ch.VPins[i].IsDriverSide() && answers[i] >= 0 {
				pairing[i] = int(answers[i])
			}
		}
		rep, err := sim.EvaluateRecovery(ch, pairing, vectors, s.Prov.Seed+int64(d))
		if err != nil {
			return err
		}
		// Chance-adjusted: how far above the 0.5 coin-flip baseline the
		// functional rate sits, rescaled to [0, 1].
		adj := 2*rep.FunctionalRate - 1
		if adj < 0 {
			adj = 0
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n", ch.Design.Name,
			fmtPct(rep.StructuralRate), fmtPct(rep.FunctionalRate), fmtPct(adj), rep.CutSinkPins)
		sSum += rep.StructuralRate
		fSum += rep.FunctionalRate
	}
	n := float64(len(chs))
	fmt.Fprintf(tw, "Avg\t%s\t%s\t\t\n", fmtPct(sSum/n), fmtPct(fSum/n))
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}

// extClassifiersRuns declares ext-classifiers' runs: the Imp-11 pipeline
// with Bagging/REPTree, RandomForest, and logistic regression, at split
// layers 8 and 6.
func extClassifiersRuns() ([]attack.Config, []int) {
	logistic := attack.WithFamily(attack.Imp11(), model.FamilyLogistic)
	logistic.Name = "Imp-11-logistic"
	forest := attack.WithBase(attack.Imp11(), ml.RandomTree, 0)
	forest.Name = "Imp-11-RandomForest"
	return []attack.Config{attack.Imp11(), forest, logistic}, []int{8, 6}
}

// extClassifiers compares classifiers under the Imp-11 pipeline at split
// layers 8 and 6: accuracy at fixed LoC sizes plus the pair-scoring AUC.
func extClassifiers(_ *Suite, r Results, w io.Writer) error {
	configs, layers := extClassifiersRuns()
	for _, layer := range layers {
		fmt.Fprintf(w, "Extension: classifier comparison - split layer %d (Imp-11 pipeline)\n", layer)
		tw := newTab(w)
		fmt.Fprintln(tw, "classifier\tacc@|LoC|=5\tacc@|LoC|=20\tpair AUC\truntime")
		results := r.All(configs, layer)
		for ci, cfg := range configs {
			res := results[ci]
			var a5, a20, auc float64
			for _, ev := range res.Evals {
				a5 += ev.AccuracyAtK(5)
				a20 += ev.AccuracyAtK(20)
				auc += pairAUC(ev)
			}
			n := float64(len(res.Evals))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%v\n", cfg.Name,
				fmtPct(a5/n), fmtPct(a20/n), auc/n,
				(res.MeanTrainDur() + res.MeanTestDur()).Round(1e6))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}

// pairAUC computes the AUC over an evaluation's scored pairs: the true
// match's probability against the retained negatives, per v-pin, pooled.
func pairAUC(ev *attack.Evaluation) float64 {
	var scores []float64
	var labels []bool
	for a := 0; a < ev.N; a++ {
		if ev.TruthP[a] >= 0 {
			scores = append(scores, float64(ev.TruthP[a]))
			labels = append(labels, true)
		}
		for _, c := range ev.Cands[a] {
			if c.P < 0 || int(c.Other) == int(ev.Truth[a]) {
				continue
			}
			scores = append(scores, float64(c.P))
			labels = append(labels, false)
		}
	}
	return ml.AUC(scores, labels)
}

// extDefenseRuns declares ext-defense's in-suite run: the undefended
// Imp-11 baseline at split layer 6.
func extDefenseRuns() ([]attack.Config, []int) {
	return []attack.Config{attack.Imp11()}, []int{6}
}

// extDefense measures the attack against layout-level defenses at split
// layer 6: routing perturbation with growing strength and wire lifting,
// reporting attack accuracy, v-pin population, and wirelength overhead.
// Every defense variant attacks with the baseline's configuration.
func extDefense(s *Suite, r Results, w io.Writer) error {
	configs, layers := extDefenseRuns()
	baseCfg, layer := configs[0], layers[0]
	type variant struct {
		name  string
		apply func(d *layout.Design, seed int64) (*layout.Design, obfuscate.Cost, error)
	}
	variants := []variant{
		{"perturb x2", func(d *layout.Design, seed int64) (*layout.Design, obfuscate.Cost, error) {
			return obfuscate.PerturbRoutes(d, layer, 2.0, seed)
		}},
		{"perturb x4", func(d *layout.Design, seed int64) (*layout.Design, obfuscate.Cost, error) {
			return obfuscate.PerturbRoutes(d, layer, 4.0, seed)
		}},
		{"lift 50% M5-M6 +2", func(d *layout.Design, seed int64) (*layout.Design, obfuscate.Cost, error) {
			return obfuscate.LiftNets(d, 5, 6, 2, 0.5, seed)
		}},
		{"trunk jogs <=4", func(d *layout.Design, seed int64) (*layout.Design, obfuscate.Cost, error) {
			return obfuscate.JogTrunks(d, layer, 4, 1.0, seed)
		}},
	}

	base := r.Result(baseCfg, layer, 0)
	baseTiming := make([]timing.DesignTiming, len(s.Designs))
	for i, d := range s.Designs {
		baseTiming[i] = timing.Analyze(d)
	}
	fmt.Fprintf(w, "Extension: layout-level defenses - split layer %d (Imp-11)\n", layer)
	tw := newTab(w)
	fmt.Fprintln(tw, "defense\tavg v-pins\tacc@|LoC|=10\twirelength overhead\tdelay overhead")
	var baseAcc, baseVp float64
	for _, ev := range base.Evals {
		baseAcc += ev.AccuracyAtK(10)
		baseVp += float64(ev.N)
	}
	n := float64(len(base.Evals))
	fmt.Fprintf(tw, "none\t%.0f\t%s\t-\t-\n", baseVp/n, fmtPct(baseAcc/n))

	for vi, v := range variants {
		chs := make([]*split.Challenge, len(s.Designs))
		var overhead, delayOH float64
		for i, d := range s.Designs {
			nd, cost, err := v.apply(d, int64(7000+100*vi+i))
			if err != nil {
				return err
			}
			overhead += cost.Overhead()
			delayOH += timing.Overhead(baseTiming[i], timing.Analyze(nd))
			if chs[i], err = split.NewChallenge(nd, layer); err != nil {
				return err
			}
		}
		cfg := s.Config(baseCfg)
		cfg.Name = fmt.Sprintf("%s-def%d", baseCfg.Name, vi)
		res, err := attack.RunInstances(cfg, attack.NewInstancesWorkers(chs, cfg.Workers))
		if err != nil {
			return err
		}
		var acc, vp float64
		for _, ev := range res.Evals {
			acc += ev.AccuracyAtK(10)
			vp += float64(ev.N)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%.2f%%\t%.2f%%\n",
			v.name, vp/n, fmtPct(acc/n), overhead/n*100, delayOH/n*100)
	}
	tw.Flush()
	fmt.Fprintln(w)
	return nil
}
