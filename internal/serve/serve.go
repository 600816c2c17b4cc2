// Package serve is the attack-as-a-service layer: a JSON-over-HTTP job
// server exposing the engine's train / attack / proximity / sweep stages as
// asynchronous jobs. A client POSTs a JobSpec, receives a job ID, polls the
// job's status (live obs.Progress snapshots included), and fetches the
// Result once the job is done — an Evaluation served this way is
// bit-identical to the same configuration run in-process through
// attack.RunTargetInstances.
//
// # Concurrency contract
//
// Jobs run on a bounded worker pool of Options.Pool goroutines; admission
// is a bounded queue of Options.Queue pending jobs, and a full queue
// rejects the submission (HTTP 429 with Retry-After) instead of buffering
// without bound. Each running job owns a context cancelled by DELETE
// /jobs/{id}: cancellation is observed at stage boundaries (between
// instance preparation, training, scoring, proximity, and sweep
// configurations) and frees the worker slot immediately — a computation
// abandoned mid-stage finishes on its own goroutine and its result is
// discarded. All jobs share one warm model.Store, so concurrent
// submissions of the same spec coalesce into exactly one training
// (singleflight), and one prepared sweep.Suite per provenance (tier, scale,
// seed), so the synthetic suite is generated once and shared by jobs at
// every layer, and each layer is cut and indexed once. Results
// are bit-identical at any pool size, queue depth, or submission
// interleaving: every job's randomness derives from its own spec's seed
// alone.
//
// # Persistence
//
// With Options.StateDir set, every job transition is persisted as
// jobs/<id>.json and every result as results/<id>.json under the
// directory. A job's result document is on disk before the job turns
// done, and GET /jobs/{id}/result serves that file as it lies. A restarted
// server reloads the directory: terminal jobs keep their states and
// results, pending jobs are re-enqueued and run again, and jobs that were
// running when the process died are marked "interrupted" (the client
// resubmits). Without a state dir the server is memory-only and encodes
// each result as it serves it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sweep"
)

// Defaults for Options fields left zero.
const (
	DefaultPool  = 2
	DefaultQueue = 16
)

// Options configures a Server.
type Options struct {
	// Obs receives the server's logs, metrics, progress trackers, and
	// spans; its telemetry endpoints are mounted on the server's mux. Nil
	// creates a fresh enabled context.
	Obs *obs.Context
	// Store is the shared trained-artifact cache; nil creates a
	// memory-only store. Concurrent same-spec jobs coalesce on it.
	Store *model.Store
	// Workers bounds the engine goroutines of each job (0 = GOMAXPROCS).
	// With Pool > 1 concurrently running jobs the pools add up; size
	// Workers accordingly.
	Workers int
	// Pool is the number of concurrently running jobs (0 = DefaultPool).
	Pool int
	// Queue bounds the pending-job queue (0 = DefaultQueue); submissions
	// beyond it are rejected with ErrQueueFull.
	Queue int
	// StateDir enables job persistence (see the package doc); empty runs
	// memory-only.
	StateDir string
	// CheckpointDir is the sweep checkpoint directory of per-fold partial
	// results (see internal/sweep). Sharded sweep jobs require it; full
	// sweep jobs use it, when present, to load folds already computed —
	// by earlier jobs, concurrent shards, or `experiments -shard` workers
	// sharing the directory — which is the merge path. Empty defaults to
	// StateDir/checkpoints when StateDir is set, else checkpointing is off.
	CheckpointDir string
	// DefaultTier, DefaultScale, and DefaultSeed fill job specs that omit
	// the suite tier, scale, or seed ("" selects layout.TierStandard, 0
	// selects 1.0 and 1).
	DefaultTier  string
	DefaultScale float64
	DefaultSeed  int64

	// runner replaces the job execution function in tests.
	runner func(ctx context.Context, s *Server, job *Job) (*Result, error)
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue full")

// Server is the job service: a bounded worker pool over a registry of
// jobs, a shared artifact store, and the prepared suites. Create
// with New, expose with Handler, stop with Close.
type Server struct {
	opts  Options
	o     *obs.Context
	store *model.Store
	// ck is the sweep checkpoint (nil without a checkpoint dir).
	ck *sweep.Checkpoint

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int

	// suites holds the one prepared suite of each provenance, generated
	// once while concurrent jobs wait and then shared by jobs at every
	// layer.
	suitesMu sync.Mutex
	suites   map[sweep.Provenance]func() (*sweep.Suite, error)
}

// New builds the server, reloads the state directory when one is
// configured (re-enqueueing pending jobs, marking previously running ones
// interrupted), and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Obs == nil {
		opts.Obs = obs.New(obs.Options{Command: "splitserved"})
	}
	if opts.Store == nil {
		opts.Store = model.NewStore(0, "")
	}
	if opts.Pool <= 0 {
		opts.Pool = DefaultPool
	}
	if opts.Queue <= 0 {
		opts.Queue = DefaultQueue
	}
	if opts.DefaultTier == "" {
		opts.DefaultTier = layout.TierStandard
	}
	if !layout.ValidTier(opts.DefaultTier) {
		return nil, fmt.Errorf("serve: unknown default tier %q (want %v)", opts.DefaultTier, layout.Tiers())
	}
	if opts.DefaultScale <= 0 {
		opts.DefaultScale = 1.0
	}
	if !(opts.DefaultScale <= maxScale) {
		return nil, fmt.Errorf("serve: default scale %g above the ceiling %g", opts.DefaultScale, maxScale)
	}
	if opts.DefaultSeed == 0 {
		opts.DefaultSeed = 1
	}
	if opts.runner == nil {
		opts.runner = execute
	}
	if opts.CheckpointDir == "" && opts.StateDir != "" {
		opts.CheckpointDir = filepath.Join(opts.StateDir, "checkpoints")
	}
	s := &Server{
		opts:   opts,
		o:      opts.Obs,
		store:  opts.Store,
		jobs:   make(map[string]*Job),
		suites: make(map[sweep.Provenance]func() (*sweep.Suite, error)),
	}
	if opts.CheckpointDir != "" {
		ck, err := sweep.Open(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		s.ck = ck
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	pending, err := s.loadState()
	if err != nil {
		return nil, err
	}
	// The queue must hold every reloaded pending job or resume would drop
	// some; live submissions are still bounded by opts.Queue afterwards.
	s.queue = make(chan *Job, max(opts.Queue, len(pending)))
	for _, job := range pending {
		s.queue <- job
	}
	s.queueDepth()
	for i := 0; i < opts.Pool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Obs returns the server's observability context.
func (s *Server) Obs() *obs.Context { return s.o }

// Close stops the server: no further jobs start, the contexts of running
// jobs are cancelled (they finish as "interrupted", persisted when a state
// dir is configured), and the worker pool drains. Pending jobs stay
// pending — a restart with the same state dir resumes them.
func (s *Server) Close() error {
	s.baseCancel()
	s.wg.Wait()
	return nil
}

// Submit validates, registers, and enqueues a job, returning it in state
// pending. A full queue returns ErrQueueFull and registers nothing.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	spec, err := s.normalize(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	job := &Job{
		ID:      fmt.Sprintf("j-%06d", s.nextID),
		Spec:    spec,
		State:   StatePending,
		Created: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()
	select {
	case s.queue <- job:
	default:
		s.mu.Lock()
		delete(s.jobs, job.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.o.Metrics().Counter("serve.jobs.rejected").Inc()
		return nil, ErrQueueFull
	}
	s.queueDepth()
	s.saveJob(job)
	s.o.Metrics().Counter("serve.jobs.submitted").Inc()
	s.o.Log().Info("job submitted", "job", job.ID, "kind", spec.Kind)
	return job, nil
}

// Job returns the registered job with the given ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	return job, ok
}

// Jobs lists every registered job in submission order (reloaded jobs
// first, ordered by ID).
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Cancel cancels the job: a pending job goes terminal immediately, a
// running job has its context cancelled and goes terminal as soon as the
// worker observes it (promptly — see the package doc). Cancelling a
// terminal job reports ErrTerminal.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	switch job.State {
	case StatePending:
		job.State = StateCancelled
		job.Finished = time.Now()
		close(job.done)
		s.mu.Unlock()
		s.saveJob(job)
		s.o.Metrics().Counter("serve.jobs.cancelled").Inc()
	case StateRunning:
		cancel := job.cancel
		s.mu.Unlock()
		cancel()
	default:
		s.mu.Unlock()
		return job, ErrTerminal
	}
	s.o.Log().Info("job cancel requested", "job", id)
	return job, nil
}

// ErrUnknownJob and ErrTerminal are Cancel's failure modes; the HTTP layer
// maps them to 404 and 409.
var (
	ErrUnknownJob = errors.New("serve: unknown job")
	ErrTerminal   = errors.New("serve: job already terminal")
)

// worker runs queued jobs until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case job := <-s.queue:
			s.queueDepth()
			s.runOne(job)
		}
	}
}

// runOne drives one job from pending to a terminal state without holding
// the worker slot past cancellation: the job body runs on its own
// goroutine, and the worker waits for whichever comes first — completion
// or the job's context.
func (s *Server) runOne(job *Job) {
	if s.baseCtx.Err() != nil {
		// Shutting down: leave the job pending for the next start.
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	s.mu.Lock()
	if job.State != StatePending { // cancelled while queued
		s.mu.Unlock()
		return
	}
	job.State = StateRunning
	job.Started = time.Now()
	job.cancel = cancel
	s.mu.Unlock()
	s.saveJob(job)
	s.o.Metrics().Counter("serve.jobs.started").Inc()
	s.o.Log().Info("job started", "job", job.ID, "kind", job.Spec.Kind)

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		// A panicking job fails alone: the panic becomes the job's error
		// and the server keeps serving. The engine's pools (internal/par)
		// re-raise a worker's panic here, with the worker's stack; a panic
		// on any other goroutine the job starts is beyond this recover.
		defer func() {
			if r := recover(); r != nil {
				stack := debug.Stack()
				if p, ok := r.(*par.Panic); ok {
					stack = p.Stack
				}
				s.o.Log().Error("job panicked", "job", job.ID, "panic", fmt.Sprint(r),
					"stack", string(stack))
				ch <- outcome{err: fmt.Errorf("job panicked: %v", r)}
			}
		}()
		res, err := s.opts.runner(ctx, s, job)
		ch <- outcome{res, err}
	}()
	select {
	case out := <-ch:
		s.finish(job, out.res, out.err)
	case <-ctx.Done():
		// Cancelled (or shutdown): free the slot now. The abandoned
		// computation finishes on its goroutine; finish ignores late
		// results because the job is already terminal.
		s.finish(job, nil, ctx.Err())
	}
}

// finish moves a running job to its terminal state and persists it. Late
// calls for an already-terminal job (the detached goroutine of a cancelled
// run completing) are discarded.
//
// A done job's result document is written to results/<id>.json before
// the job turns done and job.done closes, so on a state-dir server every
// visible done job has its document on disk, and the HTTP layer serves it
// from there. A failed write is logged; the job keeps its in-memory
// result, which the HTTP layer then serves instead.
func (s *Server) finish(job *Job, res *Result, err error) {
	persisted := false
	if err == nil && s.opts.StateDir != "" {
		perr := writeAtomic(s.resultPath(job.ID), func(w io.Writer) error { return writeResult(w, res) })
		if perr != nil {
			s.o.Log().Warn("persist result failed", "job", job.ID, "err", perr)
		}
		persisted = perr == nil
	}
	s.mu.Lock()
	if job.State != StateRunning {
		s.mu.Unlock()
		return
	}
	job.Finished = time.Now()
	var counter string
	switch {
	case err == nil:
		job.State = StateDone
		job.result = res
		job.persisted = persisted
		counter = "serve.jobs.done"
	case errors.Is(err, context.Canceled) && s.baseCtx.Err() != nil:
		job.State = StateInterrupted
		job.Err = "server shut down while the job was running"
		counter = "serve.jobs.interrupted"
	case errors.Is(err, context.Canceled):
		job.State = StateCancelled
		job.Err = "cancelled"
		counter = "serve.jobs.cancelled"
	default:
		job.State = StateFailed
		job.Err = err.Error()
		counter = "serve.jobs.failed"
	}
	state := job.State
	close(job.done)
	s.mu.Unlock()
	s.saveJob(job)
	s.o.Metrics().Counter(counter).Inc()
	s.o.Log().Info("job finished", "job", job.ID, "state", string(state),
		"elapsed", job.Finished.Sub(job.Started))
}

// setStage updates the job's coarse stage label shown in status polls.
func (s *Server) setStage(job *Job, stage string) {
	s.mu.Lock()
	job.Stage = stage
	s.mu.Unlock()
}

// queueDepth refreshes the pending-queue gauge.
func (s *Server) queueDepth() {
	s.o.Metrics().Gauge("serve.queue.depth").Set(float64(len(s.queue)))
}

// suite returns the prepared suite a job's spec pins, generating it on
// first use. Its run context is the server's: the per-job engine worker
// bound, the obs context, the shared model store and the checkpoint.
func (s *Server) suite(spec JobSpec) (*sweep.Suite, error) {
	prov := sweep.Provenance{Tier: spec.Tier, Scale: spec.Scale, Seed: *spec.Seed}
	s.suitesMu.Lock()
	get, ok := s.suites[prov]
	if !ok {
		get = sync.OnceValues(func() (*sweep.Suite, error) {
			suite, err := sweep.NewSuite(s.o, prov, s.opts.Workers)
			if err != nil {
				return nil, err
			}
			suite.Models = s.store
			suite.Checkpoint = s.ck
			return suite, nil
		})
		s.suites[prov] = get
	}
	s.suitesMu.Unlock()
	return get()
}
