// Command splitattack runs a single end-to-end attack: it generates the
// benchmark suite, cuts every design at the chosen split layer, trains on
// all designs except the target, and reports the target's LoC/accuracy
// trade-off and proximity-attack results.
//
// The train stage can be split out into a serialized model artifact:
//
//	splitattack train -design sb1 -config Imp-11 -o sb1.model
//	splitattack attack -design sb1 -config Imp-11 -model sb1.model
//
// The attack run verifies the artifact's spec hash against the spec it
// would train itself — same designs, configuration, and seed — and its
// evaluation is bit-identical to the in-process path at any worker count.
//
// Observability is opt-in: -v streams structured span logs to stderr
// (-log-format text|json), -report writes a machine-readable JSON run
// report, -metrics dumps the metrics registry, and -cpuprofile/-memprofile
// capture pprof profiles. Without these flags the output and the work done
// are identical to an uninstrumented run.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/layout"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "train":
			runTrain(args[1:])
			return
		case "attack":
			args = args[1:]
		default:
			cli.Usage("splitattack: unknown subcommand %q (want train or attack)", args[0])
		}
	}
	runAttack(args)
}

// session is the shared setup both subcommands perform: parsed flags, the
// configured attack, and the suite's prepared instances with the target
// design resolved.
type session struct {
	app    *cli.App
	o      *obs.Context
	suite  *sweep.Suite
	cfg    attack.Config
	insts  []*attack.Instance
	target int
	layer  int
	design string
	base   string
}

// prepare parses the shared target flags (plus any extras registered by
// addFlags), builds the attack configuration, generates the suite, and
// prepares the per-design instances.
func prepare(fsName string, args []string, addFlags func(*flag.FlagSet)) *session {
	fs := flag.NewFlagSet(fsName, flag.ExitOnError)
	app := cli.New("splitattack", fs)
	layer := fs.Int("layer", 8, "split (via) layer: 1..8; the paper studies 4, 6, 8")
	design := fs.String("design", "sb1", "target design: sb1 sb5 sb10 sb12 sb18 (industrial tier: sbx1 sbx10 sbx12)")
	config := fs.String("config", "Imp-11", "attack configuration: ML-9 Imp-9 Imp-7 Imp-11 (+Y suffix at layer 8), DL-MLP, DL-MLP-rank")
	base := fs.String("base", "reptree", "bagging base classifier: reptree or randomtree")
	learner := fs.String("learner", "",
		"learner family override: bagging, mlp, or logistic (default: the config's own family)")
	mlpHidden := fs.Int("mlp-hidden", 0, "mlp hidden width (0 = default 16; mlp family only)")
	mlpEpochs := fs.Int("mlp-epochs", 0, "mlp training epochs (0 = default 30; mlp family only)")
	mlpRate := fs.Float64("mlp-rate", 0, "mlp learning rate (0 = default 0.05; mlp family only)")
	ranking := fs.Bool("ranking", false, "softmax-normalise each v-pin's candidate scores (list-wise ranking head)")
	maxLoC := fs.Int("max-loc", 0,
		"absolute cap on retained per-v-pin candidate lists (0 = fraction-only); bounds memory on industrial designs")
	shard := fs.Int("shard-vpins", 0, "spatial-region size of the streamed scoring stage (0 = automatic)")
	if addFlags != nil {
		addFlags(fs)
	}
	o := app.Parse(args)

	cfg, ok := attack.ConfigByName(*config)
	if !ok {
		cli.Usage("unknown config %q", *config)
	}
	kind, err := ml.ParseTreeKind(*base)
	if err != nil {
		cli.Usage("%v", err)
	}
	cfg.BaseKind = kind
	if *learner != "" {
		cfg = attack.WithFamily(cfg, *learner)
	}
	if *mlpHidden != 0 {
		cfg.MLPHidden = *mlpHidden
	}
	if *mlpEpochs != 0 {
		cfg.MLPEpochs = *mlpEpochs
	}
	if *mlpRate != 0 {
		cfg.MLPRate = *mlpRate
	}
	if *ranking {
		cfg = attack.WithRanking(cfg)
	}
	cfg.MaxLoCCount = *maxLoC
	cfg.ShardVpins = *shard
	if err := cfg.Validate(); err != nil {
		cli.Usage("%v", err)
	}

	suite := app.Suite(o)
	// Instances (extractors + spatial indexes) are prepared once and shared
	// by the attack and proximity stages.
	insts, _, err := suite.Instances(*layer, 0)
	if err != nil {
		cli.Fatal(err)
	}
	target := slices.IndexFunc(suite.Designs, func(d *layout.Design) bool { return d.Name == *design })
	if target < 0 {
		cli.Usage("unknown design %q", *design)
	}
	return &session{app: app, o: o, suite: suite, cfg: suite.Config(cfg), insts: insts, target: target,
		layer: *layer, design: *design, base: *base}
}

// runTrain executes the train stage alone: it builds the leave-one-out spec
// for the held-out design, trains the artifact, and serializes it.
func runTrain(args []string) {
	var out *string
	s := prepare("splitattack train", args, func(fs *flag.FlagSet) {
		out = fs.String("o", "", "artifact output path (default <config>-<design>-L<layer>.model)")
	})
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s-L%d.model", s.cfg.Name, s.design, s.layer)
	}

	spec, _, err := attack.TrainSpec(s.cfg, s.insts, s.target)
	if err != nil {
		cli.Fatal(err)
	}
	t0 := time.Now()
	art, stats, err := model.Train(spec)
	if err != nil {
		cli.Fatal(err)
	}
	dur := time.Since(t0)
	if err := art.WriteFile(path); err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("trained %s for held-out %s at split layer %d in %v\n",
		s.cfg.Name, s.design, s.layer, dur.Round(time.Millisecond))
	fmt.Printf("  spec     %s\n", art.Meta.SpecHash)
	if art.Meta.Family != "" {
		fmt.Printf("  level-1  %s model on %d samples\n", art.Meta.Family, art.Meta.Samples)
	} else {
		fmt.Printf("  level-1  %d trees on %d samples\n", art.Meta.Trees, art.Meta.Samples)
	}
	if art.Meta.Level == 2 {
		fmt.Printf("  level-2  %d trees on %d samples\n", art.Meta.Level2Trees, art.Meta.Level2Samples)
	}
	fmt.Printf("wrote %s\n", path)

	configMap := map[string]any{
		"design": s.design, "layer": s.layer, "config": s.cfg.Name, "base": s.base,
	}
	summary := map[string]any{
		"spec_hash":      art.Meta.SpecHash,
		"artifact":       path,
		"samples":        art.Meta.Samples,
		"trees":          art.Meta.Trees,
		"level2_samples": art.Meta.Level2Samples,
		"train_ns":       int64(dur),
		"phases": map[string]any{
			"sampling_ns": int64(stats.Sampling),
			"level1_ns":   int64(stats.Level1),
			"level2_ns":   int64(stats.Level2),
		},
	}
	s.app.Finish(s.o, configMap, summary)
}

// runAttack executes the attack (the default subcommand): in-process
// training unless -model supplies a pre-trained artifact to score with.
func runAttack(args []string) {
	var pa *bool
	var modelPath *string
	s := prepare("splitattack attack", args, func(fs *flag.FlagSet) {
		pa = fs.Bool("pa", false, "also run the validation-based proximity attack")
		modelPath = fs.String("model", "",
			"score with this pre-trained artifact (from 'splitattack train') instead of training in-process")
	})
	cfg, o := s.cfg, s.o

	var ev *attack.Evaluation
	var radiusNorm float64
	var err error
	if *modelPath != "" {
		art, lerr := model.LoadFile(*modelPath)
		if lerr != nil {
			cli.Fatal(lerr)
		}
		ev, radiusNorm, err = attack.RunTargetArtifact(cfg, s.insts, s.target, art)
		if err == nil {
			fmt.Printf("scoring with artifact %s (spec %.12s, trained by %s)\n",
				*modelPath, art.Meta.SpecHash, art.Meta.Version)
		}
	} else if ck := s.suite.Checkpoint; ck != nil {
		// Checkpointed single-target run: the fold is saved as (or served
		// from) the same work unit an `experiments -shard` worker or a sweep
		// job would produce at these coordinates, so the commands compose.
		u := sweep.NewUnit(s.suite.Prov, cfg, s.layer, 0, s.target, s.design)
		var outcome sweep.Outcome
		ev, radiusNorm, outcome, err = sweep.RunUnit(o, ck, u, cfg, s.insts)
		if err == nil {
			fmt.Printf("checkpoint %s: unit %s %s\n", ck.Dir(), u.Key(), outcome)
		}
	} else {
		// Single-target entry point: only the held-out design's model is
		// trained, instead of the full leave-one-out sweep over all designs.
		ev, radiusNorm, err = attack.RunTargetInstances(cfg, s.insts, s.target)
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("%s at split layer %d, config %s: %d v-pins\n", s.design, s.layer, cfg.Name, ev.N)
	fmt.Printf("train %v, test %v\n\n", ev.TrainDur.Round(1e6), ev.TestDur.Round(1e6))
	if s.app.Obs.Verbose {
		ph := ev.Phases
		fmt.Printf("phases: sampling %v, level-1 %v, level-2 %v, scoring %v (%d pairs)\n",
			ph.Sampling.Round(1e6), ph.Level1.Round(1e6), ph.Level2.Round(1e6),
			ph.Scoring.Round(1e6), ev.PairsScored)
		fmt.Printf("scoring ledger: count %v, gather %v, kernel %v, retain %v, sort %v\n\n",
			ph.Count.Round(1e6), ph.Gather.Round(1e6), ph.Kernel.Round(1e6),
			ph.Retain.Round(1e6), ph.Sort.Round(1e6))
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "|LoC|\taccuracy")
	accAtK := map[string]any{}
	for _, k := range []int{1, 2, 5, 10, 20, 50, 100} {
		if k > ev.N {
			break
		}
		fmt.Fprintf(tw, "%d\t%.2f%%\n", k, ev.AccuracyAtK(k)*100)
		accAtK[fmt.Sprintf("%d", k)] = ev.AccuracyAtK(k)
	}
	tw.Flush()
	fmt.Printf("max accuracy (all scored candidates): %.2f%%\n", ev.MaxAccuracy()*100)
	for _, acc := range []float64{0.5, 0.8, 0.9, 0.95} {
		loc := ev.LoCForAccuracy(acc)
		if loc < 0 {
			fmt.Printf("|LoC| for %.0f%% accuracy: unreachable (neighborhood saturation)\n", acc*100)
		} else {
			fmt.Printf("|LoC| for %.0f%% accuracy: %.0f\n", acc*100, loc)
		}
	}

	summary := map[string]any{
		"vpins":         ev.N,
		"train_ns":      int64(ev.TrainDur),
		"test_ns":       int64(ev.TestDur),
		"pairs_scored":  ev.PairsScored,
		"max_accuracy":  ev.MaxAccuracy(),
		"accuracy_at_k": accAtK,
		"phases": map[string]any{
			"sampling_ns": int64(ev.Phases.Sampling),
			"level1_ns":   int64(ev.Phases.Level1),
			"level2_ns":   int64(ev.Phases.Level2),
			"scoring_ns":  int64(ev.Phases.Scoring),
			"count_ns":    int64(ev.Phases.Count),
			"gather_ns":   int64(ev.Phases.Gather),
			"kernel_ns":   int64(ev.Phases.Kernel),
			"retain_ns":   int64(ev.Phases.Retain),
			"sort_ns":     int64(ev.Phases.Sort),
		},
	}

	if *pa {
		fmt.Println("\nProximity attack (validation-based PA-LoC fraction):")
		out, err := attack.ProximityTargetInstances(cfg, s.insts, s.target, ev, radiusNorm)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("success %.2f%% (fixed-threshold: %.2f%%), PA-LoC fraction %.4f, validation %v\n",
			out.Success*100, out.FixedSuccess*100, out.BestFrac, out.ValidationDur.Round(time.Millisecond))
		summary["pa"] = map[string]any{
			"success":       out.Success,
			"fixed_success": out.FixedSuccess,
			"best_frac":     out.BestFrac,
		}
	}

	configMap := map[string]any{
		"design": s.design,
		"layer":  s.layer,
		"config": cfg.Name,
		"base":   s.base,
		"trees":  cfg.TrainOptions.WithDefaults().NumTrees,
	}
	if *modelPath != "" {
		configMap["model"] = *modelPath
	}
	s.app.Finish(o, configMap, summary)
}
