package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/split"
)

// testScale/testSeed shape the tiny suite every serve test runs against,
// matching the attack package's fixtures.
const (
	testScale = 0.2
	testSeed  = int64(5)
)

// newTestServer builds a server with a fresh obs context (so metric
// assertions see only this server's counters) and closes it with the test.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.New(obs.Options{Command: "serve-test"})
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// stubRunner returns instantly with a marker result, no engine work.
func stubRunner(ctx context.Context, s *Server, job *Job) (*Result, error) {
	return &Result{ID: job.ID, Kind: job.Spec.Kind, Spec: job.Spec,
		Attack: &AttackResult{Design: job.Spec.Design, EvalDigest: "stub"}}, nil
}

// blockUntilCancelled parks until the job's context is cancelled; jobs
// targeting sb5 return immediately instead, so one server can hold a slot
// hostage with sb1 while sb5 proves the slot frees up.
func blockUntilCancelled(ctx context.Context, s *Server, job *Job) (*Result, error) {
	if job.Spec.Design == "sb5" {
		return stubRunner(ctx, s, job)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// attackSpec is the canonical tiny attack job of these tests.
func attackSpec(design string) JobSpec {
	seed := testSeed
	return JobSpec{
		Kind:   KindAttack,
		Design: design,
		Layer:  8,
		Scale:  testScale,
		Seed:   &seed,
		Config: &ConfigSpec{Preset: "ML-9"},
	}
}

// waitTerminal blocks until the job finishes (fails the test at timeout).
func waitTerminal(t *testing.T, job *Job, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", job.ID, err)
	}
}

// waitState polls until the job's observed state matches.
func waitState(t *testing.T, s *Server, job *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.Status(job).State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", job.ID, want, s.Status(job).State)
}

// TestServeBitIdentity is the service's core contract: an attack job
// submitted over the job layer yields an Evaluation digest-identical to
// the same configuration run directly through attack.RunTargetInstances.
func TestServeBitIdentity(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1})
	job, err := s.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job, 10*time.Minute)
	st := s.Status(job)
	if st.State != StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	res, ok := s.Result(job)
	if !ok || res.Attack == nil {
		t.Fatalf("no attack result (ok=%v)", ok)
	}

	// The same attack, run in-process with no store and no serving layer.
	designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: testScale, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	chs := make([]*split.Challenge, len(designs))
	for i, d := range designs {
		if chs[i], err = split.NewChallenge(d, 8); err != nil {
			t.Fatal(err)
		}
		if d.Name == "sb1" {
			target = i
		}
	}
	cfg, _ := attack.ConfigByName("ML-9")
	cfg.Seed = testSeed
	ev, radius, err := attack.RunTargetInstances(cfg, attack.NewInstancesWorkers(chs, 0), target)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Attack.EvalDigest, ev.Digest(); got != want {
		t.Errorf("served digest %s != direct digest %s", got, want)
	}
	if res.Attack.VPins != ev.N {
		t.Errorf("served vpins %d != direct %d", res.Attack.VPins, ev.N)
	}
	if res.Attack.RadiusNorm != radius {
		t.Errorf("served radius %v != direct %v", res.Attack.RadiusNorm, radius)
	}
	if res.Attack.Evaluation == nil || len(res.Attack.Evaluation.Cands) != ev.N {
		t.Errorf("served evaluation lists missing or short")
	}
	if res.Attack.MaxAccuracy != ev.MaxAccuracy() {
		t.Errorf("served max accuracy %v != direct %v", res.Attack.MaxAccuracy, ev.MaxAccuracy())
	}
}

// TestServeMLPBitIdentity extends the core contract to the MLP family: a
// DL-MLP job served over the job layer must be digest-identical to the same
// configuration run directly — family selection travels the wire losslessly.
func TestServeMLPBitIdentity(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1})
	seed := testSeed
	job, err := s.Submit(JobSpec{
		Kind: KindAttack, Design: "sb1", Layer: 8, Scale: testScale, Seed: &seed,
		Config: &ConfigSpec{Preset: "DL-MLP", MLPEpochs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job, 10*time.Minute)
	st := s.Status(job)
	if st.State != StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	res, ok := s.Result(job)
	if !ok || res.Attack == nil {
		t.Fatalf("no attack result (ok=%v)", ok)
	}

	designs, err := layout.GenerateSuite(layout.SuiteConfig{Scale: testScale, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	chs := make([]*split.Challenge, len(designs))
	for i, d := range designs {
		if chs[i], err = split.NewChallenge(d, 8); err != nil {
			t.Fatal(err)
		}
		if d.Name == "sb1" {
			target = i
		}
	}
	cfg, ok := attack.ConfigByName("DL-MLP")
	if !ok {
		t.Fatal("DL-MLP preset not registered")
	}
	cfg.Seed = testSeed
	cfg.MLPEpochs = 3
	ev, _, err := attack.RunTargetInstances(cfg, attack.NewInstancesWorkers(chs, 0), target)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Attack.EvalDigest, ev.Digest(); got != want {
		t.Errorf("served mlp digest %s != direct digest %s", got, want)
	}
}

// TestServeConcurrentSameSpecTrainsOnce hammers the server with identical
// concurrent submissions: the shared store must coalesce them into exactly
// one training (model.artifacts: 1 miss) and one suite preparation
// (serve.instances: 1 miss), all results digest-identical.
func TestServeConcurrentSameSpecTrainsOnce(t *testing.T) {
	const n = 6
	o := obs.New(obs.Options{Command: "serve-test"})
	s := newTestServer(t, Options{Obs: o, Pool: n, Queue: n})
	jobs := make([]*Job, n)
	for i := range jobs {
		job, err := s.Submit(attackSpec("sb1"))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	digests := map[string]bool{}
	for _, job := range jobs {
		waitTerminal(t, job, 10*time.Minute)
		if st := s.Status(job); st.State != StateDone {
			t.Fatalf("job %s state %s, error %q", job.ID, st.State, st.Error)
		}
		res, _ := s.Result(job)
		digests[res.Attack.EvalDigest] = true
	}
	if len(digests) != 1 {
		t.Errorf("expected one shared digest, got %d: %v", len(digests), digests)
	}
	arts := o.Metrics().Cache("model.artifacts")
	if got := arts.Misses(); got != 1 {
		t.Errorf("model.artifacts misses = %d, want exactly 1 training", got)
	}
	if got := arts.Hits(); got != n-1 {
		t.Errorf("model.artifacts hits = %d, want %d", got, n-1)
	}
	insts := o.Metrics().Cache("serve.instances")
	if got := insts.Misses(); got != 1 {
		t.Errorf("serve.instances misses = %d, want 1", got)
	}
}

// TestServeSuiteSharedAcrossLayers runs attack jobs at layers 8 and 6 of one
// provenance: they share one generated suite, and each layer is cut and
// indexed once, by its own job's lookup.
func TestServeSuiteSharedAcrossLayers(t *testing.T) {
	o := obs.New(obs.Options{Command: "serve-test"})
	s := newTestServer(t, Options{Obs: o, Pool: 1})
	for _, layer := range []int{8, 6} {
		spec := attackSpec("sb1")
		spec.Layer = layer
		spec.Config = &ConfigSpec{Preset: "Imp-11", NumTrees: 2}
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, 10*time.Minute)
		if st := s.Status(job); st.State != StateDone {
			t.Fatalf("layer-%d job %s state %s, error %q", layer, job.ID, st.State, st.Error)
		}
	}
	m := o.Metrics()
	designs := int64(len(suiteDesigns(layout.TierStandard, testScale, testSeed)))
	if got := m.Counter("layout.designs.generated").Value(); got != designs {
		t.Errorf("layout.designs.generated = %d, want one suite of %d designs", got, designs)
	}
	if got := m.Counter("split.challenges").Value(); got != 2*designs {
		t.Errorf("split.challenges = %d, want one cut of %d designs per layer", got, designs)
	}
	if insts := m.Cache("serve.instances"); insts.Misses() != 2 || insts.Hits() != 0 {
		t.Errorf("serve.instances hit/miss %d/%d, want 0/2: one lookup per job, each a new layer",
			insts.Hits(), insts.Misses())
	}
}

// TestServeSuitesBounded submits attack jobs at six seeds: the server
// keeps the suites of the four most recent. A job at a kept seed
// generates nothing, and one at a dropped seed generates its suite again
// and serves the digest it served the first time.
func TestServeSuitesBounded(t *testing.T) {
	o := obs.New(obs.Options{Command: "serve-test"})
	s := newTestServer(t, Options{Obs: o, Pool: 1})
	const scale = 0.1
	generated := o.Metrics().Counter("layout.designs.generated")
	run := func(seed int64) string {
		t.Helper()
		spec := attackSpec("sb18")
		spec.Scale, spec.Seed = scale, &seed
		spec.Config = &ConfigSpec{Preset: "ML-9", NumTrees: 2}
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, 10*time.Minute)
		res, ok := s.Result(job)
		if st := s.Status(job); st.State != StateDone || !ok || res.Attack == nil {
			t.Fatalf("seed-%d job %s state %s, error %q", seed, job.ID, st.State, st.Error)
		}
		return res.Attack.EvalDigest
	}
	kept := func() int {
		s.suitesMu.Lock()
		defer s.suitesMu.Unlock()
		return len(s.suites)
	}
	digests := map[int64]string{}
	for seed := int64(1); seed <= 6; seed++ {
		digests[seed] = run(seed)
		if n := kept(); n > maxSuites {
			t.Fatalf("after seed %d the server keeps %d suites, want at most %d", seed, n, maxSuites)
		}
	}
	if digests[1] == digests[2] {
		t.Fatalf("seeds 1 and 2 served the same digest %s", digests[1])
	}
	designs := int64(len(suiteDesigns(layout.TierStandard, scale, 1)))
	if got := generated.Value(); got != 6*designs {
		t.Fatalf("layout.designs.generated = %d after six seeds, want %d", got, 6*designs)
	}
	if run(6) != digests[6] || generated.Value() != 6*designs {
		t.Errorf("a job at the most recent seed moved its digest or generated designs (%d)", generated.Value())
	}
	if run(1) != digests[1] {
		t.Error("the regenerated suite of seed 1 served another digest")
	}
	if got := generated.Value(); got != 7*designs {
		t.Errorf("layout.designs.generated = %d after revisiting seed 1, want %d: one more suite", got, 7*designs)
	}
	if n := kept(); n != maxSuites {
		t.Errorf("the server keeps %d suites, want %d", n, maxSuites)
	}
}

// TestServeCancelRunningFreesSlot cancels a mid-run job on a pool of one
// and checks the slot frees for the next job immediately.
func TestServeCancelRunningFreesSlot(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, Queue: 4, runner: blockUntilCancelled})
	blocker, err := s.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker, StateRunning)
	next, err := s.Submit(attackSpec("sb5"))
	if err != nil {
		t.Fatal(err)
	}
	// The pool has one slot and it is parked in the blocker: next must
	// stay pending until the cancellation below frees the worker.
	if st := s.Status(next).State; st != StatePending {
		t.Fatalf("second job should be pending behind the blocker, got %s", st)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, blocker, 30*time.Second)
	if st := s.Status(blocker).State; st != StateCancelled {
		t.Errorf("blocker state %s, want cancelled", st)
	}
	waitTerminal(t, next, 30*time.Second)
	if st := s.Status(next).State; st != StateDone {
		t.Errorf("next job state %s, want done", st)
	}
}

// TestServeCancelPending cancels a queued job before any worker takes it.
func TestServeCancelPending(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, Queue: 4, runner: blockUntilCancelled})
	blocker, _ := s.Submit(attackSpec("sb1"))
	waitState(t, s, blocker, StateRunning)
	queued, err := s.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(queued).State; st != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", st)
	}
	// Cancelling a terminal job conflicts.
	if _, err := s.Cancel(queued.ID); err != ErrTerminal {
		t.Errorf("second cancel err = %v, want ErrTerminal", err)
	}
	if _, err := s.Cancel("j-999999"); err != ErrUnknownJob {
		t.Errorf("unknown cancel err = %v, want ErrUnknownJob", err)
	}
	s.Cancel(blocker.ID)
}

// TestServeQueueFull checks admission control: with the only worker parked
// and the queue at capacity, the next submission is rejected.
func TestServeQueueFull(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, Queue: 1, runner: blockUntilCancelled})
	blocker, _ := s.Submit(attackSpec("sb1"))
	waitState(t, s, blocker, StateRunning)
	if _, err := s.Submit(attackSpec("sb1")); err != nil {
		t.Fatalf("queued submission should fit: %v", err)
	}
	if _, err := s.Submit(attackSpec("sb1")); err != ErrQueueFull {
		t.Fatalf("overflow submission err = %v, want ErrQueueFull", err)
	}
	// Rejected submissions must not leak into the registry.
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("registry has %d jobs, want 2", got)
	}
	s.Cancel(blocker.ID)
}

// TestServeCloseInterruptsRunning shuts the server down mid-job: the
// running job must come out interrupted, not stuck.
func TestServeCloseInterruptsRunning(t *testing.T) {
	o := obs.New(obs.Options{Command: "serve-test"})
	s, err := New(Options{Obs: o, Pool: 1, runner: blockUntilCancelled})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := s.Submit(attackSpec("sb1"))
	waitState(t, s, job, StateRunning)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(job).State; st != StateInterrupted {
		t.Errorf("job state after Close = %s, want interrupted", st)
	}
}

// TestServePanickingJobFails runs a job whose runner panics: it must end
// failed with the panic in its error and counted in serve.jobs.failed,
// and the next job on the same single-slot pool must still complete.
func TestServePanickingJobFails(t *testing.T) {
	o := obs.New(obs.Options{Command: "serve-test"})
	panicky := func(ctx context.Context, s *Server, job *Job) (*Result, error) {
		if job.Spec.Design == "sb1" {
			panic("runner exploded")
		}
		return stubRunner(ctx, s, job)
	}
	s := newTestServer(t, Options{Obs: o, Pool: 1, Queue: 4, runner: panicky})
	bad, err := s.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, bad, 30*time.Second)
	st := s.Status(bad)
	if st.State != StateFailed || !strings.Contains(st.Error, "panic") ||
		!strings.Contains(st.Error, "runner exploded") {
		t.Fatalf("panicking job: state %s, error %q; want failed naming the panic", st.State, st.Error)
	}
	if got := o.Metrics().Counter("serve.jobs.failed").Value(); got != 1 {
		t.Errorf("serve.jobs.failed = %d, want 1", got)
	}
	good, err := s.Submit(attackSpec("sb5"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, good, 30*time.Second)
	if st := s.Status(good).State; st != StateDone {
		t.Errorf("job after the panic: state %s, want done", st)
	}
}

// TestServePanickingPoolStageFails runs a job whose pooled stage panics on
// an internal/par worker goroutine, as the engine's scoring windows do on
// an asymmetric filter: the pool re-raises it on the job's goroutine, so
// the job ends failed naming the panic, and the next job on the same
// single-slot pool still completes.
func TestServePanickingPoolStageFails(t *testing.T) {
	o := obs.New(obs.Options{Command: "serve-test"})
	pooled := func(ctx context.Context, s *Server, job *Job) (*Result, error) {
		if job.Spec.Design == "sb1" {
			err := par.For(8, 2, func(_, i int) error {
				if i == 5 {
					panic("pool stage exploded")
				}
				return nil
			})
			return nil, err
		}
		return stubRunner(ctx, s, job)
	}
	s := newTestServer(t, Options{Obs: o, Pool: 1, Queue: 4, runner: pooled})
	bad, err := s.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, bad, 30*time.Second)
	if st := s.Status(bad); st.State != StateFailed || !strings.Contains(st.Error, "pool stage exploded") {
		t.Fatalf("job with a panicking pool stage: state %s, error %q; want failed naming the panic",
			st.State, st.Error)
	}
	good, err := s.Submit(attackSpec("sb5"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, good, 30*time.Second)
	if st := s.Status(good).State; st != StateDone {
		t.Errorf("job after the pool panic: state %s, want done", st)
	}
}

// TestServeSpecValidation exercises submission-time rejection.
func TestServeSpecValidation(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no kind", JobSpec{Design: "sb1"}},
		{"bad kind", JobSpec{Kind: "exfiltrate"}},
		{"no config", JobSpec{Kind: KindAttack, Design: "sb1"}},
		{"no design", JobSpec{Kind: KindAttack, Config: &ConfigSpec{Preset: "ML-9"}}},
		{"bad design", JobSpec{Kind: KindAttack, Design: "sb999", Config: &ConfigSpec{Preset: "ML-9"}}},
		{"bad preset", JobSpec{Kind: KindAttack, Design: "sb1", Config: &ConfigSpec{Preset: "GPT-9"}}},
		{"bad layer", JobSpec{Kind: KindAttack, Design: "sb1", Layer: 11, Config: &ConfigSpec{Preset: "ML-9"}}},
		{"bad base", JobSpec{Kind: KindAttack, Design: "sb1", Config: &ConfigSpec{Preset: "ML-9", Base: "xgboost"}}},
		{"bad learner", JobSpec{Kind: KindAttack, Design: "sb1", Config: &ConfigSpec{Preset: "ML-9", Learner: "xgboost"}}},
		{"bad sweep learner", JobSpec{Kind: KindSweep, Configs: []ConfigSpec{{Preset: "ML-9", Learner: "nope"}}}},
		{"empty config", JobSpec{Kind: KindAttack, Design: "sb1", Config: &ConfigSpec{}}},
		{"sweep with config", JobSpec{Kind: KindSweep, Config: &ConfigSpec{Preset: "ML-9"}}},
		{"attack with configs", JobSpec{Kind: KindAttack, Design: "sb1",
			Configs: []ConfigSpec{{Preset: "ML-9"}}}},
		{"negative scale", JobSpec{Kind: KindAttack, Design: "sb1", Scale: -1,
			Config: &ConfigSpec{Preset: "ML-9"}}},
		{"bad sweep config", JobSpec{Kind: KindSweep, Configs: []ConfigSpec{{Preset: "nope"}}}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.spec); err == nil {
			t.Errorf("%s: submission unexpectedly accepted", tc.name)
		}
	}
	// Defaults fill in: a sweep with no configs resolves to the four
	// standard configurations, layer 8, the server's scale and seed.
	norm, err := s.normalize(JobSpec{Kind: KindSweep})
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Configs) != 4 || norm.Layer != 8 || norm.Scale != testScale ||
		norm.Seed == nil || *norm.Seed != testSeed {
		t.Errorf("sweep normalize = %+v", norm)
	}
}

// TestServeConfigSpecResolve checks preset + override resolution.
func TestServeConfigSpecResolve(t *testing.T) {
	tr := true
	cs := ConfigSpec{Preset: "Imp-11", TwoLevel: &tr, NumTrees: 7, Base: "randomtree"}
	cfg, err := cs.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Neighborhood || !cfg.TwoLevel || cfg.NumTrees != 7 {
		t.Errorf("resolved config %+v", cfg)
	}
	off := false
	cs2 := ConfigSpec{Preset: "Imp-9", Neighborhood: &off}
	cfg2, err := cs2.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Neighborhood {
		t.Errorf("neighborhood override off failed: %+v", cfg2)
	}
	if _, err := (ConfigSpec{Name: "custom", Features: []int{0, 1, 99}}).resolve(); err == nil {
		t.Error("out-of-range feature index accepted")
	}

	// The learner family axis maps onto the engine config, knobs included.
	on := true
	cs3 := ConfigSpec{Preset: "Imp-11", Learner: model.FamilyMLP,
		MLPHidden: 24, MLPEpochs: 5, MLPRate: 0.1, Ranking: &on}
	cfg3, err := cs3.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg3.Family != model.FamilyMLP || cfg3.MLPHidden != 24 ||
		cfg3.MLPEpochs != 5 || cfg3.MLPRate != 0.1 || !cfg3.Ranking {
		t.Errorf("mlp learner resolution = %+v", cfg3)
	}
	// The DL-MLP preset's ranking head can be toggled off.
	offR := false
	cfg4, err := (ConfigSpec{Preset: "DL-MLP-rank", Ranking: &offR}).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg4.Ranking || cfg4.Family != model.FamilyMLP {
		t.Errorf("ranking override off failed: %+v", cfg4)
	}
}

// TestServeJobIDsMonotonic checks IDs are unique and ordered.
func TestServeJobIDsMonotonic(t *testing.T) {
	s := newTestServer(t, Options{Pool: 1, Queue: 16, runner: stubRunner})
	var last string
	for i := 0; i < 5; i++ {
		job, err := s.Submit(attackSpec("sb1"))
		if err != nil {
			t.Fatal(err)
		}
		if job.ID <= last {
			t.Errorf("job ID %s not greater than %s", job.ID, last)
		}
		last = job.ID
		waitTerminal(t, job, 30*time.Second)
	}
	if want := fmt.Sprintf("j-%06d", 5); last != want {
		t.Errorf("last ID %s, want %s", last, want)
	}
}
