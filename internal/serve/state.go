package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// record is the persisted form of a job: jobs/<id>.json under the state
// dir. Results live next to it as results/<id>.json so a restarted server
// can keep serving them.
type record struct {
	ID       string    `json:"id"`
	Spec     JobSpec   `json:"spec"`
	State    JobState  `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	Error    string    `json:"error,omitempty"`
	// HasResult marks that results/<id>.json was written before this
	// record went done; a done record without it lost its document to a
	// failed write.
	HasResult bool `json:"has_result,omitempty"`
}

func (s *Server) jobsDir() string    { return filepath.Join(s.opts.StateDir, "jobs") }
func (s *Server) resultsDir() string { return filepath.Join(s.opts.StateDir, "results") }

// resultPath is the persisted result document of a job.
func (s *Server) resultPath(id string) string {
	return filepath.Join(s.resultsDir(), id+".json")
}

// saveJob persists the job's current record; a memory-only server no-ops.
// Persistence failures are logged, not fatal: the job keeps running and
// only restart durability degrades.
func (s *Server) saveJob(job *Job) {
	if s.opts.StateDir == "" {
		return
	}
	s.mu.Lock()
	rec := record{
		ID:        job.ID,
		Spec:      job.Spec,
		State:     job.State,
		Created:   job.Created,
		Started:   job.Started,
		Finished:  job.Finished,
		Error:     job.Err,
		HasResult: job.persisted,
	}
	s.mu.Unlock()
	if err := writeJSONAtomic(filepath.Join(s.jobsDir(), job.ID+".json"), rec); err != nil {
		s.o.Log().Warn("persist job record failed", "job", job.ID, "err", err)
	}
}

// loadState reloads the state directory into the registry and returns the
// jobs to re-enqueue: terminal jobs keep their states, pending jobs resume,
// and jobs persisted as running were interrupted by the previous process's
// death — they are marked so and not re-run (the attack consumed no
// caller-visible state, but silently re-running could double multi-minute
// work; the client decides). Creates the directory layout on first use.
func (s *Server) loadState() ([]*Job, error) {
	if s.opts.StateDir == "" {
		return nil, nil
	}
	for _, dir := range []string{s.jobsDir(), s.resultsDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	var pending, interrupted []*Job
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(s.jobsDir(), id+".json"))
		if err != nil {
			return nil, fmt.Errorf("serve: load job %s: %w", id, err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("serve: load job %s: %w", id, err)
		}
		job := &Job{
			ID:       rec.ID,
			Spec:     rec.Spec,
			State:    rec.State,
			Created:  rec.Created,
			Started:  rec.Started,
			Finished: rec.Finished,
			Err:      rec.Error,
			done:     make(chan struct{}),
			// A done job's document now lives only in the state dir.
			persisted: rec.HasResult,
		}
		switch rec.State {
		case StatePending:
			pending = append(pending, job)
		case StateRunning:
			job.State = StateInterrupted
			job.Err = "server restarted while the job was running"
			if job.Finished.IsZero() {
				job.Finished = time.Now()
			}
			close(job.done)
			interrupted = append(interrupted, job)
		default:
			close(job.done)
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if n := idNumber(job.ID); n > s.nextID {
			s.nextID = n
		}
	}
	// Persist the interruption marks before any new work starts.
	for _, job := range interrupted {
		s.saveJob(job)
	}
	if len(s.order) > 0 {
		s.o.Log().Info("state reloaded", "jobs", len(s.order), "resumed", len(pending))
	}
	return pending, nil
}

// idNumber extracts the numeric suffix of a job ID ("j-000042" -> 42).
func idNumber(id string) int {
	num, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0
	}
	return n
}

// writeJSONAtomic writes v to path as indented JSON, atomically.
func writeJSONAtomic(path string, v any) error {
	return writeAtomic(path, func(w io.Writer) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	})
}

// writeAtomic writes path through write via a temp file + rename, so
// readers (and crashed writers) never observe a torn document. A failed
// write leaves no file.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
