// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite. Each experiment is
// registered under the paper's table/figure number, declares the
// leave-one-out runs it reads, and writes a plain-text reproduction of the
// corresponding rows or series from those runs' results.
//
// Attack runs are cached per (configuration content hash, split layer,
// noise) inside a Suite, so experiments that share underlying runs (Tables
// I and IV, Fig. 9, ...) do not repeat work.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/priorwork"
	"repro/internal/sweep"
)

// Suite is a prepared sweep.Suite plus the experiments' caches of attack
// runs, proximity attacks and nearest-neighbour baselines. A Suite is safe
// for concurrent use: caches are mutex-guarded and attack results depend
// only on (seed, config, layer, noise), never on which goroutine computed
// them.
type Suite struct {
	*sweep.Suite

	mu   sync.Mutex
	runs map[string]*attack.Result
	pa   map[string][]attack.PAOutcome
	nn   map[int][]float64
}

// NewSuite wraps a prepared suite with empty caches. Every run started
// through it inherits the sweep suite's seed, worker bound, obs context,
// model store and checkpoint (see sweep.Suite.Config).
func NewSuite(s *sweep.Suite) *Suite {
	return &Suite{
		Suite: s,
		runs:  map[string]*attack.Result{},
		pa:    map[string][]attack.PAOutcome{},
		nn:    map[int][]float64{},
	}
}

// cacheLookup records a suite-cache outcome on the metrics registry.
func (s *Suite) cacheLookup(hit bool) {
	s.Obs.Metrics().Cache("suite.cache").Lookup(hit)
}

// runKey is the cache key of a run at a (layer, noise) coordinate: the
// config's content hash (which covers its name), exactly what the run's
// sweep units key on, so two configs sharing a name never share a result.
func runKey(cfg attack.Config, layer int, sd float64) string {
	return fmt.Sprintf("%s@%d/%g", cfg.OptionsHash(), layer, sd)
}

// RunNoisy executes (and caches) a leave-one-out run of cfg at the given
// split layer on challenges with Gaussian y-noise of standard deviation sd
// (a fraction of die height; 0 is the clean suite). It is sweep.Run with
// the zero shard: with a Checkpoint, folds already in it are loaded and the
// rest are computed and saved; either way the Result is bit-identical to
// attack.RunInstances on the same instances.
func (s *Suite) RunNoisy(cfg attack.Config, layer int, sd float64) (*attack.Result, error) {
	key := runKey(cfg, layer, sd)
	s.mu.Lock()
	r, ok := s.runs[key]
	s.mu.Unlock()
	s.cacheLookup(ok)
	if ok {
		return r, nil
	}

	r, _, err := sweep.Run(context.TODO(), s.Suite, sweep.Shard{}, cfg, layer, sd)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s at layer %d: %w", cfg.Name, layer, err)
	}
	s.mu.Lock()
	s.runs[key] = r
	s.mu.Unlock()
	return r, nil
}

// runPA executes (and caches) the validation-based proximity attack of cfg
// at the given split layer, optionally on noise-obfuscated challenges
// (sd > 0, as a fraction of die height). It reuses the cached attack run's
// candidate lists; only the PA-LoC validation stage is new work.
func (s *Suite) runPA(cfg attack.Config, layer int, sd float64) ([]attack.PAOutcome, error) {
	key := runKey(cfg, layer, sd)
	s.mu.Lock()
	out, ok := s.pa[key]
	s.mu.Unlock()
	s.cacheLookup(ok)
	if ok {
		return out, nil
	}

	insts, _, err := s.Instances(layer, sd)
	if err != nil {
		return nil, err
	}
	prior, err := s.RunNoisy(cfg, layer, sd)
	if err != nil {
		return nil, err
	}
	out, err = attack.RunProximityOnInstances(s.Config(cfg), insts, prior)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.pa[key] = out
	s.mu.Unlock()
	return out, nil
}

// sweep runs fn for every index in 0..n-1 on the suite's worker pool and
// joins the per-index errors, tracking live progress under "sweep.<name>".
// Each index's work is deterministic on its own, so the sweep result does
// not depend on the worker count.
func (s *Suite) sweep(name string, n int, fn func(i int) error) error {
	prog := s.Obs.NewProgress("sweep."+name, int64(n))
	defer prog.Finish()
	return par.For(n, s.Workers, func(_, i int) error {
		defer prog.Add(1)
		return fn(i)
	})
}

// nnPA returns the nearest-neighbour PA success of design d at the given
// layer, cached per layer.
func (s *Suite) nnPA(layer, d int) float64 {
	s.mu.Lock()
	if v, ok := s.nn[layer]; ok {
		s.mu.Unlock()
		s.cacheLookup(true)
		return v[d]
	}
	s.mu.Unlock()
	s.cacheLookup(false)
	chs, err := s.Challenges(layer, 0)
	if err != nil {
		return 0
	}
	v := make([]float64, len(chs))
	rng := rand.New(rand.NewSource(s.Prov.Seed + int64(layer)))
	for i, ch := range chs {
		v[i] = priorwork.NearestNeighborPA(ch, rng)
	}
	s.mu.Lock()
	s.nn[layer] = v
	s.mu.Unlock()
	return v[d]
}

// Experiment is one reproducible table or figure: the leave-one-out runs it
// reads, declared once, and a renderer that can read only those.
type Experiment struct {
	// ID is the registry key: "table1".."table6", "fig4".."fig10".
	ID string
	// Title describes what the paper reports there.
	Title string
	// Runs declares every suite run the renderer reads. It is both what
	// Run computes before rendering and what a sharded sweep plans (see
	// Plan), so a shard precomputes exactly the folds the merge renders
	// from. Experiments that read no run (fig4/7/8) declare none;
	// ext-defense's defense variants mutate layouts out of the suite and
	// run themselves.
	Runs []RunSpec
	// render writes the reproduction to w from the declared runs' results.
	render func(s *Suite, r Results, w io.Writer) error
}

// Run computes the experiment's declared runs and renders it to w. The runs
// share the suite's pool — Workers runs at a time, each over Workers folds —
// and are cached and checkpointed through RunNoisy.
func (e Experiment) Run(s *Suite, w io.Writer) error {
	r, err := s.results(e)
	if err != nil {
		return err
	}
	return e.render(s, r, w)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: comparison with prior work [5] across split layers", Runs: crossLayers(attack.StandardConfigs(), tableLayers), render: tableI},
		{ID: "table2", Title: "Table II: RandomTree vs REPTree base classifiers (Imp-7)", Runs: crossLayers(tableIIRuns()), render: tableII},
		{ID: "table3", Title: "Table III: two-level pruning vs no pruning (Imp-11, layer 8)", Runs: crossLayers(tableIIIRuns()), render: tableIII},
		{ID: "table4", Title: "Table IV: model configurations, LoC/accuracy trade-offs, runtime", Runs: tableIVSpecs(), render: tableIV},
		{ID: "table5", Title: "Table V: proximity attack success rates", Runs: withPA(tableIVSpecs()), render: tableV},
		{ID: "table6", Title: "Table VI: proximity attack under design obfuscation", Runs: withPA(noiseSpecs()), render: tableVI},
		{ID: "fig4", Title: "Fig. 4: CDF of matched-pair ManhattanVpin (layer 6)", render: fig4},
		{ID: "fig7", Title: "Fig. 7: feature importance rankings across layers", render: fig7},
		{ID: "fig8", Title: "Fig. 8: feature distributions by class (layer 6)", render: fig8},
		{ID: "fig9", Title: "Fig. 9: LoC-fraction vs accuracy trade-off curves", Runs: tableIVSpecs(), render: fig9},
		{ID: "fig10", Title: "Fig. 10: trade-off curves with and without obfuscation noise", Runs: noiseSpecs(), render: fig10},
	}
}

// AllWithExtensions returns the paper's experiments followed by the
// repository's extension experiments.
func AllWithExtensions() []Experiment {
	return append(All(), extExperiments()...)
}

// RunExperiment executes one experiment under a span on the suite's
// observability context, so per-experiment wall-clock cost lands in run
// reports. With a nil Suite.Obs it is exactly e.Run(s, w).
func RunExperiment(s *Suite, e Experiment, w io.Writer) error {
	sp := s.Obs.Begin("experiment", obs.F("id", e.ID))
	err := e.Run(s, w)
	sp.End()
	s.Obs.Metrics().Counter("experiments.run").Inc()
	return err
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range AllWithExtensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
