package serve

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// JobState is one point of the job lifecycle:
//
//	pending ──> running ──> done
//	   │           ├──────> failed
//	   │           ├──────> cancelled    (DELETE while running)
//	   │           └──────> interrupted  (server died or shut down mid-run)
//	   └──────────────────> cancelled    (DELETE while queued)
//
// done, failed, cancelled, and interrupted are terminal.
type JobState string

const (
	StatePending     JobState = "pending"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCancelled   JobState = "cancelled"
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled || st == StateInterrupted
}

// validState reports whether st names a lifecycle state (the ?state= list
// filter rejects anything else).
func validState(st JobState) bool {
	switch st {
	case StatePending, StateRunning, StateDone, StateFailed, StateCancelled, StateInterrupted:
		return true
	}
	return false
}

// Job is one submitted unit of work. Fields are guarded by the owning
// Server's mutex; read them through Status, Wait, or the Server accessors
// rather than directly from other goroutines.
type Job struct {
	ID       string
	Spec     JobSpec
	State    JobState
	Stage    string // coarse progress label while running
	Created  time.Time
	Started  time.Time
	Finished time.Time
	Err      string

	result *Result
	// persisted marks that results/<id>.json holds the job's result
	// document, from which a state-dir server serves it.
	persisted bool
	cancel    context.CancelFunc
	done      chan struct{} // closed on entering a terminal state
	// saveMu serializes the writes of the job's record: each write takes
	// its snapshot and writes it under the lock, so the last write carries
	// the latest state and no two writers share the temp file.
	saveMu sync.Mutex
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JobStatus is the wire form of a job returned by GET /jobs and
// GET /jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	Stage string   `json:"stage,omitempty"`
	// Shard is the sweep partition this job computes ("i/n"); empty for
	// unsharded jobs.
	Shard    string     `json:"shard,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// ElapsedNS is the wall-clock run time so far (running) or total
	// (terminal); 0 while pending.
	ElapsedNS int64   `json:"elapsed_ns,omitempty"`
	Error     string  `json:"error,omitempty"`
	Spec      JobSpec `json:"spec"`
	// Progress carries the job's live obs.Progress snapshots (the
	// "job.<id>" tracker plus any engine trackers while running).
	Progress []obs.ProgressStatus `json:"progress,omitempty"`
	Links    map[string]string    `json:"links"`
}

// Status snapshots the job for the API.
func (s *Server) Status(job *Job) JobStatus {
	s.mu.Lock()
	st := JobStatus{
		ID:      job.ID,
		Kind:    job.Spec.Kind,
		State:   job.State,
		Stage:   job.Stage,
		Shard:   sweep.Shard{Index: job.Spec.Shard, Count: job.Spec.Of}.String(),
		Created: job.Created,
		Error:   job.Err,
		Spec:    job.Spec,
		Links: map[string]string{
			"self":   "/jobs/" + job.ID,
			"result": "/jobs/" + job.ID + "/result",
		},
	}
	if !job.Started.IsZero() {
		t := job.Started
		st.Started = &t
		switch {
		case !job.Finished.IsZero():
			st.ElapsedNS = int64(job.Finished.Sub(job.Started))
		default:
			st.ElapsedNS = int64(time.Since(job.Started))
		}
	}
	if !job.Finished.IsZero() {
		t := job.Finished
		st.Finished = &t
	}
	running := job.State == StateRunning
	s.mu.Unlock()
	if running {
		prefix := "job." + job.ID
		for _, p := range s.o.ProgressStatuses() {
			if p.Name == prefix || strings.HasPrefix(p.Name, prefix+".") {
				st.Progress = append(st.Progress, p)
			}
		}
	}
	return st
}

// Result returns the job's result document once done; ok is false before
// the job reaches StateDone. A job reloaded from a state dir has only its
// persisted results/<id>.json, which the HTTP layer serves.
func (s *Server) Result(job *Job) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job.State != StateDone || job.result == nil {
		return nil, false
	}
	return job.result, true
}
