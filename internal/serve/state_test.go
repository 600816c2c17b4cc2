package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStateRestart drives the documented restart semantics through a real
// state directory: a done job keeps serving its persisted result, a job
// persisted as running comes back interrupted, a pending job resumes and
// runs, and new IDs continue past every reloaded one.
func TestStateRestart(t *testing.T) {
	dir := t.TempDir()

	// First life: run one job to completion, then shut down.
	s1 := newTestServer(t, Options{Pool: 1, StateDir: dir, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	done, err := s1.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, done, 30*time.Second)
	if st := s1.Status(done).State; st != StateDone {
		t.Fatalf("first-life job state %s", st)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "results", done.ID+".json")); err != nil {
		t.Fatalf("result document not persisted: %v", err)
	}

	// Forge the two records a crashed server would leave behind: one job
	// that was running when the process died, one still pending.
	seed := testSeed
	spec := JobSpec{Kind: KindAttack, Design: "sb5", Layer: 8,
		Scale: testScale, Seed: &seed, Config: &ConfigSpec{Preset: "ML-9"}}
	forge := func(id string, state JobState) {
		rec := record{ID: id, Spec: spec, State: state, Created: time.Now()}
		if state == StateRunning {
			rec.Started = time.Now()
		}
		if err := writeJSONAtomic(filepath.Join(dir, "jobs", id+".json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	forge("j-000007", StateRunning)
	forge("j-000009", StatePending)

	// Second life.
	s2 := newTestServer(t, Options{Pool: 1, StateDir: dir, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	// The done job's result is still served — its document now comes from
	// disk, since the in-memory result did not survive the restart.
	resp, err := http.Get(ts.URL + "/jobs/" + done.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reloaded result status %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != done.ID || res.Attack == nil || res.Attack.EvalDigest != "stub" {
		t.Errorf("reloaded result = %+v", res)
	}

	// The running record came back interrupted, and the interruption is
	// persisted (visible to a third life).
	interrupted, ok := s2.Job("j-000007")
	if !ok {
		t.Fatal("running record not reloaded")
	}
	if st := s2.Status(interrupted); st.State != StateInterrupted || st.Error == "" {
		t.Errorf("running record reloaded as %s (%q), want interrupted", st.State, st.Error)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "j-000007.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateInterrupted {
		t.Errorf("persisted state %s, want interrupted", rec.State)
	}

	// The pending record was re-enqueued and runs to completion.
	resumed, ok := s2.Job("j-000009")
	if !ok {
		t.Fatal("pending record not reloaded")
	}
	waitTerminal(t, resumed, 30*time.Second)
	if st := s2.Status(resumed).State; st != StateDone {
		t.Errorf("resumed job state %s, want done", st)
	}

	// New submissions continue past the highest reloaded ID.
	fresh, err := s2.Submit(attackSpec("sb1"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID <= "j-000009" {
		t.Errorf("fresh ID %s does not continue past reloaded IDs", fresh.ID)
	}
	waitTerminal(t, fresh, 30*time.Second)

	// The full registry lists every life's jobs in ID order.
	jobs := s2.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("registry has %d jobs, want 4", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].ID >= jobs[i].ID {
			t.Errorf("registry out of order: %s before %s", jobs[i-1].ID, jobs[i].ID)
		}
	}
}

// TestStateResumeOverflowsQueue reloads more pending jobs than the
// configured queue bound: resume must not drop any.
func TestStateResumeOverflowsQueue(t *testing.T) {
	dir := t.TempDir()
	seed := testSeed
	spec := JobSpec{Kind: KindAttack, Design: "sb1", Layer: 8,
		Scale: testScale, Seed: &seed, Config: &ConfigSpec{Preset: "ML-9"}}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 1; i <= n; i++ {
		id := jobID(i)
		rec := record{ID: id, Spec: spec, State: StatePending, Created: time.Now()}
		if err := writeJSONAtomic(filepath.Join(dir, "jobs", id+".json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	// Queue bound 1 < 5 reloaded jobs: all must still resume.
	s := newTestServer(t, Options{Pool: 1, Queue: 1, StateDir: dir, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	for _, job := range s.Jobs() {
		waitTerminal(t, job, 30*time.Second)
		if st := s.Status(job).State; st != StateDone {
			t.Errorf("resumed job %s state %s, want done", job.ID, st)
		}
	}
}

// TestStateCorruptRecord checks a torn/corrupt job record fails server
// construction loudly instead of silently dropping jobs.
func TestStateCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j-000001.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{StateDir: dir}); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

// jobID formats an ID the way the server does.
func jobID(n int) string {
	return fmt.Sprintf("j-%06d", n)
}

// TestServeRecordsEndAtLatestState submits many instant jobs from four
// concurrent clients to a state-dir server with two workers, so each job's
// pending, running and done records race one another to the disk. Every
// persisted record must decode and read done with its result on disk — the
// last write carries the latest state — and a restart on the same
// directory must re-run none of them.
func TestServeRecordsEndAtLatestState(t *testing.T) {
	const n, clients = 400, 4
	dir := t.TempDir()
	s := newTestServer(t, Options{Pool: 2, Queue: n, StateDir: dir, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				job, err := s.Submit(attackSpec("sb1"))
				if err != nil {
					t.Error(err)
					return
				}
				jobs[i] = job
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, job := range jobs {
		waitTerminal(t, job, 30*time.Second)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		data, err := os.ReadFile(filepath.Join(dir, "jobs", job.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("record %s does not decode: %v", job.ID, err)
		}
		if rec.State != StateDone || !rec.HasResult {
			t.Fatalf("record %s reads %s (result on disk %t), want done with its result",
				job.ID, rec.State, rec.HasResult)
		}
	}

	var reruns atomic.Int64
	counting := func(ctx context.Context, s *Server, job *Job) (*Result, error) {
		reruns.Add(1)
		return stubRunner(ctx, s, job)
	}
	s2 := newTestServer(t, Options{Pool: 2, StateDir: dir, runner: counting,
		DefaultScale: testScale, DefaultSeed: testSeed})
	for _, job := range jobs {
		j, ok := s2.Job(job.ID)
		if !ok {
			t.Fatalf("job %s not reloaded", job.ID)
		}
		if st := s2.Status(j).State; st != StateDone {
			t.Fatalf("job %s reloaded as %s, want done", job.ID, st)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reruns.Load(); got != 0 {
		t.Fatalf("the restarted server re-ran %d done jobs", got)
	}
}

// TestStateReloadsRemovedSpecField: a record persisted while specs could
// carry "scalar_scoring" — a field POST /jobs now rejects — still reloads,
// and its pending job runs.
func TestStateReloadsRemovedSpecField(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := `{"id":"j-000001","spec":{"kind":"attack","design":"sb1","layer":8,"scale":0.2,"seed":5,` +
		`"config":{"preset":"ML-9","scalar_scoring":true}},"state":"pending","created":"2026-01-02T03:04:05Z"}`
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j-000001.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Pool: 1, StateDir: dir, runner: stubRunner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	job, ok := s.Job("j-000001")
	if !ok {
		t.Fatal("record carrying scalar_scoring not reloaded")
	}
	waitTerminal(t, job, 30*time.Second)
	if st := s.Status(job).State; st != StateDone {
		t.Fatalf("reloaded job state %s, want done", st)
	}
}
