// Package cli holds the flag wiring shared by every command in cmd/: the
// -tier/-scale/-seed flags that pin the synthetic suite (App.Suite builds
// it), the obs.CLI
// observability bundle (-v, -workers, -report, -metrics, profiles,
// -version), and the exit-path plumbing around them. Commands add their own
// flags on the same FlagSet and call Parse once:
//
//	fs := flag.NewFlagSet("mycmd", flag.ExitOnError)
//	app := cli.New("mycmd", fs)
//	layer := fs.Int("layer", 8, "split layer")
//	o := app.Parse(os.Args[1:])
//	...
//	app.Finish(o, configMap, summaryMap)
package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// osExit is swapped out by tests that exercise the exit paths.
var osExit = os.Exit

// App is one command's shared flag state: the suite parameters plus the
// observability bundle, bound to the command's FlagSet.
type App struct {
	// Name is the command name, used for -version output and as the
	// observability report's command field.
	Name string
	// Tier, Scale, and Seed are the -tier/-scale/-seed values after Parse.
	Tier  string
	Scale float64
	Seed  int64
	// Obs is the observability flag bundle (verbose, workers, report,
	// metrics, profiles, version).
	Obs obs.CLI
	// ModelCache and ModelCacheDir are the -model-cache/-model-cache-dir
	// values after Parse: the in-memory capacity and optional on-disk
	// directory of the trained-artifact store built by ModelStore.
	ModelCache    int
	ModelCacheDir string
	// CheckpointDir is the -checkpoint-dir value after Parse: the sweep
	// checkpoint directory for per-fold partial results (resume after a
	// kill, shard across processes, merge deterministically). Empty
	// disables checkpointing.
	CheckpointDir string

	fs *flag.FlagSet
}

// New registers the shared flags on fs and returns the App bound to it.
// Command-specific flags are registered on the same fs afterwards.
func New(name string, fs *flag.FlagSet) *App {
	a := &App{Name: name, fs: fs}
	fs.StringVar(&a.Tier, "tier", layout.TierStandard,
		"benchmark suite tier: standard (five sb* designs) or industrial (three 100k+-cell sbx* designs)")
	fs.Float64Var(&a.Scale, "scale", 1.0, "benchmark suite scale factor")
	fs.Int64Var(&a.Seed, "seed", 1, "generation and attack seed")
	fs.IntVar(&a.ModelCache, "model-cache", 0,
		"in-memory trained-model cache capacity (0 = default)")
	fs.StringVar(&a.ModelCacheDir, "model-cache-dir", "",
		"on-disk trained-model cache directory; artifacts persist across runs (empty = memory only)")
	fs.StringVar(&a.CheckpointDir, "checkpoint-dir", "",
		"sweep checkpoint directory: per-fold partial results for resume, sharding, and merge (empty = off)")
	a.Obs.Register(fs)
	return a
}

// Suite generates the suite the -tier/-scale/-seed flags pin on -workers
// goroutines and prepares it for runs: o, when non-nil, instruments it, and
// the model store and checkpoint implied by the flags serve every run on it.
// Errors terminate the process.
func (a *App) Suite(o *obs.Context) *sweep.Suite {
	s, err := sweep.NewSuite(o, sweep.Provenance{Tier: a.Tier, Scale: a.Scale, Seed: a.Seed}, a.Workers())
	if err != nil {
		Fatal(err)
	}
	s.Models = a.ModelStore()
	if a.CheckpointDir != "" {
		if s.Checkpoint, err = sweep.Open(a.CheckpointDir); err != nil {
			Fatal(err)
		}
	}
	return s
}

// ModelStore builds the trained-artifact store implied by the
// -model-cache/-model-cache-dir flags: an in-memory LRU always, plus the
// on-disk layer when a directory was given, so repeated runs (and the job
// server's concurrent requests) train each spec exactly once. Results are
// bit-identical with or without the store.
func (a *App) ModelStore() *model.Store {
	return model.NewStore(a.ModelCache, a.ModelCacheDir)
}

// Parse parses args, handles -version (print and exit 0), and starts the
// observability context implied by the flags — nil when every observability
// feature is off. Flag and setup errors terminate the process.
func (a *App) Parse(args []string) *obs.Context {
	if err := a.fs.Parse(args); err != nil {
		// Only reachable under flag.ContinueOnError; ExitOnError FlagSets
		// have already exited.
		Fatal(err)
	}
	if a.Obs.ShowVersion {
		fmt.Println(a.Name, obs.Version())
		osExit(0)
	}
	o, err := a.Obs.Setup(a.Name)
	if err != nil {
		Fatal(err)
	}
	return o
}

// Workers is the parsed -workers value (0 = GOMAXPROCS).
func (a *App) Workers() int { return a.Obs.Workers }

// Finish runs the at-exit observability work (profiles, metrics dump, run
// report), stamping the shared scale/seed/workers values into the report's
// config block unless the command already set them. Errors terminate the
// process.
func (a *App) Finish(o *obs.Context, config, summary map[string]any) {
	if config == nil {
		config = map[string]any{}
	}
	for key, val := range map[string]any{
		"scale":   a.Scale,
		"seed":    a.Seed,
		"workers": a.Obs.Workers,
	} {
		if _, ok := config[key]; !ok {
			config[key] = val
		}
	}
	if err := a.Obs.Finish(o, config, summary); err != nil {
		Fatal(err)
	}
}

// Fatal prints err to stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	osExit(1)
}

// Usage prints a formatted usage error to stderr and exits 2, matching the
// flag package's convention for bad invocations.
func Usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	osExit(2)
}
