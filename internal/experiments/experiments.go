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
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/priorwork"
	"repro/internal/split"
	"repro/internal/sweep"
)

// Suite is the generated benchmark suite plus caches of challenges and
// attack results. A Suite is safe for concurrent use: caches are
// mutex-guarded and attack results depend only on (Seed, config, layer),
// never on which goroutine computed them.
type Suite struct {
	Designs []*layout.Design
	// Tier is the suite tier the designs came from ("" means standard).
	Tier  string
	Scale float64
	Seed  int64

	// Workers bounds the goroutines of every attack run and config sweep
	// started through this suite (propagated into attack.Config.Workers
	// unless the config sets its own). Zero selects GOMAXPROCS. Results
	// are bit-identical at any worker count.
	Workers int

	// Obs, when non-nil, receives cache hit/miss counters, spans, and logs
	// from every suite operation and is propagated into attack runs.
	Obs *obs.Context

	// Checkpoint, when non-nil, persists every leave-one-out fold as a
	// content-addressed unit file (see internal/sweep): folds already in the
	// checkpoint are loaded instead of recomputed — bit-identically — which
	// is both the resume path for killed runs and the merge path combining
	// partials that other shards (or machines) computed. Every learner
	// family checkpoints — MLP folds resume exactly like Bagging folds.
	Checkpoint *sweep.Checkpoint

	mu    sync.Mutex
	chs   map[int][]*split.Challenge
	insts map[string][]*attack.Instance
	runs  map[string]*attack.Result
	noisy map[string][]*split.Challenge
	pa    map[string][]attack.PAOutcome
	nn    map[int][]float64
	// models caches trained artifacts per fold by spec content hash, so
	// sweeps that retrain identical folds (threshold sweeps, two-level
	// variants sharing a level-1 model) become cache hits; see
	// model.Store. It rides alongside the instance cache and reports
	// outcomes under the "model.artifacts" counters.
	models *model.Store
}

// NewSuiteTier generates a benchmark suite: tier "standard" for the five
// sb* benchmark designs, "industrial" for the three 100k+-cell sbx* designs,
// at the given scale and seed. The designs are generated concurrently on up
// to workers goroutines (0 = GOMAXPROCS), and the bound is inherited by
// every attack run and config sweep started through the suite. Generation is
// per-design deterministic, so the suite is identical at any worker count.
// o, when non-nil, instruments generation and every later suite operation;
// every cache and attack path downstream is tier-agnostic.
func NewSuiteTier(o *obs.Context, tier string, scale float64, seed int64, workers int) (*Suite, error) {
	designs, err := layout.GenerateSuiteObs(o, layout.SuiteConfig{Tier: tier, Scale: scale, Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	s := NewSuiteFromDesigns(designs, scale, seed)
	s.Tier = tier
	s.Workers = workers
	s.Obs = o
	return s, nil
}

// SetModelStore replaces the suite's trained-artifact store. Commands use
// this to wire the -model-cache/-model-cache-dir flags in: with a shared
// on-disk directory, concurrent shards (separate processes, even separate
// machines) train each unique fold spec exactly once and load it everywhere
// else. A nil store is ignored.
func (s *Suite) SetModelStore(st *model.Store) {
	if st == nil {
		return
	}
	s.mu.Lock()
	s.models = st
	s.mu.Unlock()
}

// cacheLookup records a suite-cache outcome on the metrics registry.
func (s *Suite) cacheLookup(hit bool) {
	s.Obs.Metrics().Cache("suite.cache").Lookup(hit)
}

// NewSuiteFromDesigns wraps already-generated designs in a Suite with
// fresh caches. The benchmark harness uses this to re-measure attack work
// without re-generating layouts.
func NewSuiteFromDesigns(designs []*layout.Design, scale float64, seed int64) *Suite {
	return &Suite{
		Designs: designs,
		Scale:   scale,
		Seed:    seed,
		chs:     map[int][]*split.Challenge{},
		insts:   map[string][]*attack.Instance{},
		runs:    map[string]*attack.Result{},
		noisy:   map[string][]*split.Challenge{},
		pa:      map[string][]attack.PAOutcome{},
		nn:      map[int][]float64{},
		models:  model.NewStore(0, ""),
	}
}

// Challenges returns (and caches) the challenges for a split layer.
func (s *Suite) Challenges(layer int) ([]*split.Challenge, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if chs, ok := s.chs[layer]; ok {
		s.cacheLookup(true)
		return chs, nil
	}
	s.cacheLookup(false)
	chs := make([]*split.Challenge, 0, len(s.Designs))
	for _, d := range s.Designs {
		c, err := split.NewChallengeObs(s.Obs, d, layer)
		if err != nil {
			return nil, err
		}
		chs = append(chs, c)
	}
	s.chs[layer] = chs
	return chs, nil
}

// NoisyChallenges returns challenges with Gaussian y-noise of the given
// standard deviation (fraction of die height) applied to all v-pins,
// cached per (layer, sd).
func (s *Suite) NoisyChallenges(layer int, sd float64) ([]*split.Challenge, error) {
	base, err := s.Challenges(layer)
	if err != nil {
		return nil, err
	}
	if sd == 0 {
		return base, nil
	}
	key := fmt.Sprintf("%d/%g", layer, sd)
	s.mu.Lock()
	defer s.mu.Unlock()
	if chs, ok := s.noisy[key]; ok {
		s.cacheLookup(true)
		return chs, nil
	}
	s.cacheLookup(false)
	rng := rand.New(rand.NewSource(s.Seed*1000 + int64(layer)*17 + int64(sd*1e4)))
	chs := make([]*split.Challenge, len(base))
	for i, ch := range base {
		chs[i] = ch.WithNoise(sd, rng)
	}
	s.noisy[key] = chs
	return chs, nil
}

// Instances returns (and caches) the prepared attack instances — feature
// extractors plus spatial pair indexes — for a split layer and noise level
// (sd 0 selects the clean challenges). Instances are immutable, so one set
// is shared by every attack run, sweep, and figure at the same (layer,
// noise) coordinates; multi-config sweeps stop re-deriving per-v-pin
// features. Lookups are counted under "suite.instances.hit"/".miss".
func (s *Suite) Instances(layer int, sd float64) ([]*attack.Instance, error) {
	key := fmt.Sprintf("%d/%g", layer, sd)
	s.mu.Lock()
	in, ok := s.insts[key]
	s.mu.Unlock()
	s.Obs.Metrics().Cache("suite.instances").Lookup(ok)
	if ok {
		return in, nil
	}
	chs, err := s.NoisyChallenges(layer, sd)
	if err != nil {
		return nil, err
	}
	in = attack.NewInstancesWorkers(chs, s.Workers)
	s.mu.Lock()
	s.insts[key] = in
	s.mu.Unlock()
	return in, nil
}

// prepare stamps a config with the suite's seed, worker bound, and
// observability context before an attack run. A config's own Workers, when
// set, wins over the suite's.
func (s *Suite) prepare(cfg attack.Config) attack.Config {
	cfg.Seed = s.Seed
	if cfg.Workers == 0 {
		cfg.Workers = s.Workers
	}
	if s.Obs != nil {
		cfg.Obs = s.Obs
	}
	if cfg.Models == nil {
		cfg.Models = s.models
	}
	return cfg
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

	insts, err := s.Instances(layer, sd)
	if err != nil {
		return nil, err
	}
	r, _, err = sweep.Run(context.TODO(), s.Checkpoint, s.provenance(), sweep.Shard{}, s.prepare(cfg), sd, insts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s at layer %d: %w", cfg.Name, layer, err)
	}
	s.mu.Lock()
	s.runs[key] = r
	s.mu.Unlock()
	return r, nil
}

// provenance pins the suite for the sweep units of its runs.
func (s *Suite) provenance() sweep.Provenance {
	return sweep.Provenance{Tier: s.Tier, Scale: s.Scale, Seed: s.Seed}
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

	insts, err := s.Instances(layer, sd)
	if err != nil {
		return nil, err
	}
	prior, err := s.RunNoisy(cfg, layer, sd)
	if err != nil {
		return nil, err
	}
	out, err = attack.RunProximityOnInstances(s.prepare(cfg), insts, prior)
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
	chs, err := s.Challenges(layer)
	if err != nil {
		return 0
	}
	v := make([]float64, len(chs))
	rng := rand.New(rand.NewSource(s.Seed + int64(layer)))
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
