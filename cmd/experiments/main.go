// Command experiments regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	experiments [-scale 1.0] [-seed 1] [-run table1,fig9 | -run all] [-list]
//
// Scale 1.0 corresponds to roughly 1/20th of the paper's industrial
// designs (see DESIGN.md); smaller scales run faster with noisier numbers.
//
// Sweeps distribute across processes (or machines sharing a filesystem)
// with -checkpoint-dir and -shard: each shard computes only the work units
// it owns and writes per-fold partials; a final run with -checkpoint-dir
// alone merges them into output bit-identical to a single-process run.
//
//	experiments -run all -checkpoint-dir ck -shard 1/3   # worker 1
//	experiments -run all -checkpoint-dir ck -shard 2/3   # worker 2
//	experiments -run all -checkpoint-dir ck -shard 3/3   # worker 3
//	experiments -run all -checkpoint-dir ck              # merge + render
//
// Observability is opt-in: -v streams structured span logs to stderr
// (-log-format text|json), -report writes a JSON run report with
// per-experiment spans and suite-cache metrics, -metrics dumps the metrics
// registry, and -cpuprofile/-memprofile capture pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	app := cli.New("experiments", fs)
	run := fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	shardFlag := fs.String("shard", "",
		"compute only this partition of the selected experiments' work units, as i/n (requires -checkpoint-dir); exits without rendering")
	o := app.Parse(os.Args[1:])

	shard, err := sweep.ParseShard(*shardFlag)
	if err != nil {
		cli.Usage("%v", err)
	}
	if *shardFlag != "" && app.CheckpointDir == "" {
		cli.Usage("-shard requires -checkpoint-dir: shards communicate through the checkpoint")
	}

	if *list {
		for _, e := range experiments.AllWithExtensions() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	switch *run {
	case "all":
		selected = experiments.All()
	case "everything":
		selected = experiments.AllWithExtensions()
	default:
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				cli.Usage("%v", err)
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("Generating benchmark suite (scale %.2f, seed %d)...\n", app.Scale, app.Seed)
	t0 := time.Now()
	suite := experiments.NewSuite(app.Suite(o))
	for _, d := range suite.Designs {
		fmt.Printf("  %-5s cells=%d nets=%d\n", d.Name, len(d.Netlist.Cells), len(d.Netlist.Nets))
	}
	fmt.Printf("Suite ready in %v.\n\n", time.Since(t0).Round(time.Millisecond))

	if *shardFlag != "" {
		// Shard mode: compute this shard's work units into the checkpoint
		// and exit. Rendering happens in a later merge run (no -shard).
		t := time.Now()
		stats, err := suite.RunPlan(experiments.Plan(selected), shard)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("Shard %s done in %v: %s\n", shard, time.Since(t).Round(time.Millisecond), stats)
		app.Finish(o, map[string]any{"run": *run, "shard": shard.String()}, map[string]any{
			"units_planned":    stats.Planned,
			"units_owned":      stats.Owned,
			"units_computed":   stats.Done,
			"units_loaded":     stats.Skipped,
			"units_recomputed": stats.Recomputed,
		})
		return
	}

	ran := []string{}
	durations := map[string]any{}
	prog := o.NewProgress("experiments", int64(len(selected)))
	for _, e := range selected {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		t := time.Now()
		if err := experiments.RunExperiment(suite, e, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		d := time.Since(t)
		fmt.Printf("(%s finished in %v)\n\n", e.ID, d.Round(time.Millisecond))
		ran = append(ran, e.ID)
		durations[e.ID+"_ns"] = int64(d)
		prog.Add(1)
	}
	prog.Finish()

	configMap := map[string]any{"run": *run}
	// Cache effectiveness: instance_cache is how often a (layer, noise)
	// sweep reused prepared extractors/indexes; artifact_cache is how often
	// a fold's trained model was reused instead of retrained (config sweeps
	// and two-level runs sharing their level-1 stage).
	ic := o.Metrics().Cache("suite.instances")
	ac := o.Metrics().Cache("model.artifacts")
	summary := map[string]any{
		"experiments":          ran,
		"experiment_durations": durations,
		"instance_cache":       map[string]any{"hits": ic.Hits(), "misses": ic.Misses()},
		"artifact_cache":       map[string]any{"hits": ac.Hits(), "misses": ac.Misses()},
	}
	if suite.Checkpoint != nil {
		// A pure merge run shows computed 0 and every unit loaded.
		summary["sweep_units"] = map[string]any{
			"computed":   o.Metrics().Counter("sweep.units.done").Value(),
			"loaded":     o.Metrics().Counter("sweep.units.skipped").Value(),
			"recomputed": o.Metrics().Counter("sweep.units.recomputed").Value(),
		}
	}
	app.Finish(o, configMap, summary)
}
