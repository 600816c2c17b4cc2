package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// httpFixture is an httptest server over a job server with the given
// options.
func httpFixture(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.DefaultScale == 0 {
		opts.DefaultScale = testScale
	}
	if opts.DefaultSeed == 0 {
		opts.DefaultSeed = testSeed
	}
	s := newTestServer(t, opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request and decodes the response body into out (skipped
// when out is nil), returning the response for header/status checks.
func doJSON(t *testing.T, method, url string, body string, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp
}

// errCode extracts the error envelope's code from a response body.
func errCode(t *testing.T, resp *http.Response, body string, url string) string {
	t.Helper()
	var env apiError
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("%s: error body %q is not the envelope: %v", url, body, err)
	}
	return env.Error.Code
}

// TestHTTPLifecycle walks the documented happy path over real HTTP:
// submit -> 202, poll -> 200, result -> 202 then 200, list, index, designs,
// and the mounted obs endpoints.
func TestHTTPLifecycle(t *testing.T) {
	_, ts := httpFixture(t, Options{Pool: 1, runner: stubRunner})

	var st JobStatus
	resp := doJSON(t, "POST", ts.URL+"/jobs",
		`{"kind":"attack","design":"sb1","config":{"preset":"ML-9"}}`, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("submit content type %q", ct)
	}
	if st.ID == "" || st.Spec.Seed == nil || *st.Spec.Seed != testSeed ||
		st.Spec.Scale != testScale || st.Spec.Layer != 8 {
		t.Fatalf("submit status did not echo the normalized spec: %+v", st)
	}
	if st.Links["result"] != "/jobs/"+st.ID+"/result" {
		t.Errorf("links = %v", st.Links)
	}

	// Poll until done; each poll must return 200 regardless of state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp = doJSON(t, "GET", ts.URL+"/jobs/"+st.ID, "", &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll %d, want 200", resp.StatusCode)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	if st.Started == nil || st.Finished == nil || st.ElapsedNS < 0 {
		t.Errorf("done status missing timestamps: %+v", st)
	}

	var res Result
	resp = doJSON(t, "GET", ts.URL+"/jobs/"+st.ID+"/result", "", &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d, want 200", resp.StatusCode)
	}
	if res.ID != st.ID || res.Attack == nil || res.Attack.EvalDigest != "stub" {
		t.Errorf("result = %+v", res)
	}

	var list []JobStatus
	if resp = doJSON(t, "GET", ts.URL+"/jobs", "", &list); len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}
	var designs []string
	doJSON(t, "GET", ts.URL+"/designs", "", &designs)
	if len(designs) == 0 || designs[0] != "sb1" {
		t.Errorf("designs = %v", designs)
	}
	for _, path := range []string{"/", "/healthz", "/metrics", "/progress", "/spans"} {
		if resp := doJSON(t, "GET", ts.URL+path, "", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestHTTPResultWhileRunning checks the result endpoint answers 202 with
// the live status while the job is still in flight.
func TestHTTPResultWhileRunning(t *testing.T) {
	s, ts := httpFixture(t, Options{Pool: 1, runner: blockUntilCancelled})
	var st JobStatus
	doJSON(t, "POST", ts.URL+"/jobs",
		`{"kind":"attack","design":"sb1","config":{"preset":"ML-9"}}`, &st)
	job, _ := s.Job(st.ID)
	waitState(t, s, job, StateRunning)

	resp := doJSON(t, "GET", ts.URL+"/jobs/"+st.ID+"/result", "", &st)
	if resp.StatusCode != http.StatusAccepted || st.State != StateRunning {
		t.Errorf("running result = %d state %s, want 202 running", resp.StatusCode, st.State)
	}

	// Cancel over HTTP, then the result endpoint conflicts.
	if resp = doJSON(t, "DELETE", ts.URL+"/jobs/"+st.ID, "", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", resp.StatusCode)
	}
	waitTerminal(t, job, 30*time.Second)
	req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+st.ID+"/result", nil)
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if raw.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled result status %d, want 409", raw.StatusCode)
	}
	if code := errCode(t, raw, string(body), "result"); code != "conflict" {
		t.Errorf("error code %q, want conflict", code)
	}
}

// TestHTTPErrors exercises every documented error response and its
// envelope code.
func TestHTTPErrors(t *testing.T) {
	s, ts := httpFixture(t, Options{Pool: 1, Queue: 1, runner: blockUntilCancelled})

	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/jobs", `not json`, http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"ML-9"},"bogus":1}`,
			http.StatusBadRequest, "invalid_spec"}, // unknown fields rejected
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"ML-9","scalar_scoring":true}}`,
			http.StatusBadRequest, "invalid_spec"}, // the removed scoring knob is an unknown field
		{"POST", "/jobs", `{"kind":"attack","design":"sb1"}`, http.StatusBadRequest, "invalid_spec"},
		// Out-of-range options are rejected, not run as their defaults.
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","neighbor_quantile":1.5}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","num_trees":-3}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","max_loc_frac":2}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","train_cap":-1}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_hidden":-3}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_epochs":-1}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_rate":-0.05}}`,
			http.StatusBadRequest, "invalid_spec"},
		// Sizes above the fixed ceilings are rejected before any work.
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","scale":1e6,"config":{"preset":"ML-9"}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","num_trees":1001}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_hidden":1025}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_epochs":1001}}`,
			http.StatusBadRequest, "invalid_spec"},
		{"POST", "/jobs", `{"kind":"attack","design":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
			http.StatusRequestEntityTooLarge, "invalid_spec"}, // body over the 1 MiB bound
		{"GET", "/jobs/j-999999", "", http.StatusNotFound, "unknown_job"},
		{"GET", "/jobs/j-999999/result", "", http.StatusNotFound, "unknown_job"},
		{"DELETE", "/jobs/j-999999", "", http.StatusNotFound, "unknown_job"},
	}
	for _, tc := range cases {
		var rd io.Reader
		if tc.body != "" {
			rd = strings.NewReader(tc.body)
		}
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, rd)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.status, body)
			continue
		}
		if code := errCode(t, resp, string(body), tc.path); code != tc.code {
			t.Errorf("%s %s code %q, want %q", tc.method, tc.path, code, tc.code)
		}
	}

	// Backpressure: park the only worker, fill the queue, then overflow.
	submit := func() (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			bytes.NewReader([]byte(`{"kind":"attack","design":"sb1","config":{"preset":"ML-9"}}`)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}
	resp, body := submit()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	blocker, _ := s.Job(st.ID)
	waitState(t, s, blocker, StateRunning)
	if resp, body = submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit %d: %s", resp.StatusCode, body)
	}
	resp, body = submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := errCode(t, resp, body, "/jobs"); code != "queue_full" {
		t.Errorf("429 code %q, want queue_full", code)
	}

	// Cancelling a terminal job conflicts over HTTP too.
	s.Cancel(blocker.ID)
	waitTerminal(t, blocker, 30*time.Second)
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+blocker.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("terminal cancel %d, want 409", resp.StatusCode)
	}
	if code := errCode(t, resp, string(body2), "cancel"); code != "conflict" {
		t.Errorf("terminal cancel code %q, want conflict", code)
	}
}

// TestHTTPConfigs checks GET /configs lists every named preset and every
// registered learner family, validates the tier query like /designs, and
// spells out the bagging default instead of the zero-value alias.
func TestHTTPConfigs(t *testing.T) {
	_, ts := httpFixture(t, Options{Pool: 1, runner: stubRunner})

	var doc configsResponse
	if resp := doJSON(t, "GET", ts.URL+"/configs", "", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /configs = %d, want 200", resp.StatusCode)
	}
	if doc.Tier != "standard" {
		t.Errorf("default tier %q, want standard", doc.Tier)
	}
	byName := map[string]configInfo{}
	for _, p := range doc.Presets {
		if p.Learner == "" {
			t.Errorf("preset %s has an empty learner; the wire form must spell out the default", p.Name)
		}
		byName[p.Name] = p
	}
	for _, name := range []string{"ML-9", "Imp-11", "Imp-11Y", "DL-MLP", "DL-MLP-rank"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("preset %s missing from /configs", name)
		}
	}
	if p := byName["Imp-11"]; p.Learner != "bagging" || p.Features != 11 {
		t.Errorf("Imp-11 = %+v", p)
	}
	if p := byName["DL-MLP-rank"]; p.Learner != "mlp" || !p.Ranking {
		t.Errorf("DL-MLP-rank = %+v", p)
	}
	families := map[string]bool{}
	for _, f := range doc.Learners {
		families[f] = true
	}
	for _, f := range []string{"bagging", "mlp", "logistic"} {
		if !families[f] {
			t.Errorf("family %s missing from /configs learners %v", f, doc.Learners)
		}
	}

	// Explicit tier echoes; unknown tier answers 400 with the envelope.
	if resp := doJSON(t, "GET", ts.URL+"/configs?tier=industrial", "", &doc); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /configs?tier=industrial = %d, want 200", resp.StatusCode)
	}
	if doc.Tier != "industrial" {
		t.Errorf("tier echo %q, want industrial", doc.Tier)
	}
	resp, err := http.Get(ts.URL + "/configs?tier=galactic")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown tier = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if code := errCode(t, resp, string(body), "/configs"); code != "invalid_spec" {
		t.Errorf("unknown tier code %q, want invalid_spec", code)
	}
}

// TestHTTPIndexListsEndpoints checks the index mentions every route.
func TestHTTPIndexListsEndpoints(t *testing.T) {
	_, ts := httpFixture(t, Options{Pool: 1, runner: stubRunner})
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, ep := range []string{"POST /jobs", "GET /jobs/{id}/result", "DELETE /jobs/{id}",
		"GET /designs", "GET /configs", "/metrics", "/progress", "/healthz"} {
		if !strings.Contains(string(body), ep) {
			t.Errorf("index missing %q:\n%s", ep, body)
		}
	}
}
