package sweep

import (
	"errors"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/split"
)

// Suite is the generated benchmark suite of one provenance, prepared for
// attack runs. It holds the designs, each (layer, noise) cut of them — the
// challenges and, built separately, the instances (feature extractors and
// spatial indexes) — and the run context every run on the suite shares.
// Each cut is built once, on first use, while concurrent callers wait for
// that build. A Suite is safe for concurrent use.
type Suite struct {
	// Prov pins the suite: its tier, scale and seed. The seed also roots
	// every attack run on it.
	Prov    Provenance
	Designs []*layout.Design

	// Workers bounds the goroutines of every cut and run (0 = GOMAXPROCS).
	// Results are bit-identical at any worker count.
	Workers int
	// Obs, when non-nil, receives the cuts' spans, logs and lookup
	// counters, and is stamped onto every configuration.
	Obs *obs.Context
	// Models caches trained artifacts by spec content hash for every
	// configuration that does not bring its own store, so folds that train
	// an identical spec (threshold sweeps, two-level variants sharing a
	// level-1 model) train it once.
	Models *model.Store
	// Checkpoint, when non-nil, persists every fold Run computes as a
	// content-addressed unit and loads the folds it already holds: the
	// resume path after a kill and the merge path for other shards'
	// partials.
	Checkpoint *Checkpoint

	mu   sync.Mutex
	cuts map[cutKey]*cut
}

// cutKey is one (split layer, y-noise SD) coordinate of a suite.
type cutKey struct {
	layer int
	noise float64
}

// cut is the suite at one coordinate: its challenges and instances, each
// built once.
type cut struct {
	chs   lazy[[]*split.Challenge]
	insts lazy[[]*attack.Instance]
}

// lazy is a value built on first use while concurrent callers wait.
type lazy[T any] struct {
	once sync.Once
	val  T
	err  error
}

// errBuildPanicked answers the callers after a build that panicked.
var errBuildPanicked = errors.New("sweep: an earlier build of this suite cut panicked")

// get returns the value, building it unless an earlier call has, and
// whether an earlier call had.
func (l *lazy[T]) get(build func() (T, error)) (T, bool, error) {
	hit := true
	l.once.Do(func() {
		hit = false
		l.err = errBuildPanicked // kept only if build panics
		l.val, l.err = build()
	})
	return l.val, hit, l.err
}

// NewSuite generates the designs of the suite prov pins on up to workers
// goroutines (0 = GOMAXPROCS) and prepares it for runs; o, when non-nil,
// instruments generation and every later cut and run.
func NewSuite(o *obs.Context, prov Provenance, workers int) (*Suite, error) {
	designs, err := layout.GenerateSuiteObs(o, layout.SuiteConfig{
		Tier: prov.Tier, Scale: prov.Scale, Seed: prov.Seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	s := SuiteOf(prov, designs)
	s.Workers = workers
	s.Obs = o
	return s, nil
}

// SuiteOf prepares already-generated designs of the suite prov pins, with
// no cut built yet and a fresh memory-only model store.
func SuiteOf(prov Provenance, designs []*layout.Design) *Suite {
	return &Suite{Prov: prov, Designs: designs, Models: model.NewStore(0, "")}
}

// Config stamps the suite's run context onto cfg: the seed, the worker
// bound and the model store unless cfg sets its own, and the obs context.
func (s *Suite) Config(cfg attack.Config) attack.Config {
	cfg.Seed = s.Prov.Seed
	if cfg.Workers == 0 {
		cfg.Workers = s.Workers
	}
	if s.Obs != nil {
		cfg.Obs = s.Obs
	}
	if cfg.Models == nil {
		cfg.Models = s.Models
	}
	return cfg
}

func (s *Suite) cut(layer int, noise float64) *cut {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cuts == nil {
		s.cuts = map[cutKey]*cut{}
	}
	key := cutKey{layer, noise}
	c, ok := s.cuts[key]
	if !ok {
		c = &cut{}
		s.cuts[key] = c
	}
	return c
}

// Challenges returns the designs cut at the split layer, with Gaussian
// y-noise of standard deviation noise (a fraction of die height) on every
// v-pin when noise is not 0. Each call is one "suite.cache" lookup.
func (s *Suite) Challenges(layer int, noise float64) ([]*split.Challenge, error) {
	chs, hit, err := s.cut(layer, noise).chs.get(func() ([]*split.Challenge, error) {
		if noise != 0 {
			return s.noisy(layer, noise)
		}
		return s.cutDesigns(layer)
	})
	s.Obs.Metrics().Cache("suite.cache").Lookup(hit)
	return chs, err
}

// cutDesigns cuts every design at the layer: the one place a run's
// challenge is cut, each under a span, a debug line and the
// "split.challenges" counter.
func (s *Suite) cutDesigns(layer int) ([]*split.Challenge, error) {
	chs := make([]*split.Challenge, len(s.Designs))
	for i, d := range s.Designs {
		sp := s.Obs.Begin("split.challenge", obs.F("design", d.Name), obs.F("layer", layer))
		ch, err := split.NewChallenge(d, layer)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetAttr("vpins", len(ch.VPins))
		sp.End()
		s.Obs.Metrics().Counter("split.challenges").Inc()
		s.Obs.Log().Debug("challenge cut", "design", d.Name, "layer", layer, "vpins", len(ch.VPins))
		chs[i] = ch
	}
	return chs, nil
}

// noisy moves the v-pins of the clean cut at the layer, from one stream
// seeded by the suite seed, the layer and the noise.
func (s *Suite) noisy(layer int, sd float64) ([]*split.Challenge, error) {
	base, err := s.Challenges(layer, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Prov.Seed*1000 + int64(layer)*17 + int64(sd*1e4)))
	chs := make([]*split.Challenge, len(base))
	for i, ch := range base {
		chs[i] = ch.WithNoise(sd, rng)
	}
	return chs, nil
}

// Instances returns the prepared instances of the (layer, noise) cut, one
// per design, and whether an earlier call had built them. Instances are
// immutable, so every run, sweep and figure at the coordinate shares them.
// Each call is one "suite.instances" lookup.
func (s *Suite) Instances(layer int, noise float64) ([]*attack.Instance, bool, error) {
	insts, hit, err := s.cut(layer, noise).insts.get(func() ([]*attack.Instance, error) {
		chs, err := s.Challenges(layer, noise)
		if err != nil {
			return nil, err
		}
		return attack.NewInstancesWorkers(chs, s.Workers), nil
	})
	s.Obs.Metrics().Cache("suite.instances").Lookup(hit)
	return insts, hit, err
}
