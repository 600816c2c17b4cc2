package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
)

// apiError is the error envelope every non-2xx API response carries.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

type apiErrorBody struct {
	// Code is a stable machine-readable identifier: invalid_spec,
	// queue_full, unknown_job, not_ready, conflict.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError emits the error envelope with the given HTTP status.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(apiError{Error: apiErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}}) //nolint:errcheck
}

// Handler returns the service's HTTP API on one mux:
//
//	GET    /                 endpoint index
//	POST   /jobs             submit a JobSpec -> 202 + JobStatus
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's status (live progress included)
//	DELETE /jobs/{id}        cancel a pending or running job
//	GET    /jobs/{id}/result the Result document of a done job
//	GET    /designs          the suite design names jobs may target
//	GET    /configs          the config presets and learner families
//
// plus the obs telemetry endpoints (/metrics, /progress, /spans, /healthz,
// /debug/pprof) mounted on the same mux, so one address serves both the
// API and its observability. See API.md for request/response schemas and
// curl examples.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	obsEndpoints := s.o.Mount(mux)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /designs", s.handleDesigns)
	mux.HandleFunc("GET /configs", s.handleConfigs)
	endpoints := append([]string{
		"POST /jobs", "GET /jobs", "GET /jobs/{id}", "DELETE /jobs/{id}",
		"GET /jobs/{id}/result", "GET /designs", "GET /configs",
	}, obsEndpoints...)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "splitserved job API (see API.md):")
		for _, ep := range endpoints {
			fmt.Fprintf(w, "  %s\n", ep)
		}
	})
	return mux
}

// maxSpecBytes bounds a POST /jobs body. A job spec is a few hundred
// bytes; the bound keeps one request from buffering an arbitrarily large
// body.
const maxSpecBytes = 1 << 20

// maxSweepConfigs is the ceiling on the configurations of one submitted
// sweep.
const maxSweepConfigs = 256

// handleSubmit accepts a JobSpec and enqueues it: 202 with the pending
// job's status, 400 on an invalid spec, 413 on a body over maxSpecBytes,
// 429 with Retry-After when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "invalid_spec", "read job spec: %v", err)
		return
	}
	spec, err := decodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_spec", "decode job spec: %v", err)
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"job queue is full (%d pending); retry later", cap(s.queue))
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "invalid_spec", "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	obs.ServeJSON(noStatusWriter{w}, s.Status(job))
}

// decodeSpec decodes a POST /jobs body, refusing unknown fields, and a
// sweep of more than maxSweepConfigs configurations before it decodes
// them: encoding/json grows a []ConfigSpec in steps, so a body of empty
// configs, `[{},{},…]`, turns each three-byte element into a 200-byte
// ConfigSpec several times over, about 330 bytes per body byte.
func decodeSpec(body []byte) (JobSpec, error) {
	var spec JobSpec
	// The probe's field matches the same keys as JobSpec.Configs; a body
	// it cannot decode is left to the decoder below.
	var probe struct{ Configs configCount }
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(&probe)
	if probe.Configs > maxSweepConfigs {
		return spec, fmt.Errorf("more than %d configs", maxSweepConfigs)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// configCount decodes a JSON array to the largest element count it has
// been given, keeping no element, so a key that repeats is counted at its
// longest array.
type configCount int

func (c *configCount) UnmarshalJSON(b []byte) error {
	var elems []struct{}
	// Errors are the decoder's to report; elements that are not objects
	// still count.
	_ = json.Unmarshal(b, &elems)
	*c = max(*c, configCount(len(elems)))
	return nil
}

// handleList serves every job's status, submission-ordered. An optional
// ?state= query keeps only jobs in that lifecycle state (400 on an unknown
// one); omitted, every job is listed.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("state"))
	if filter != "" && !validState(filter) {
		writeError(w, http.StatusBadRequest, "invalid_spec",
			"unknown state %q (want pending, running, done, failed, cancelled, or interrupted)", filter)
		return
	}
	jobs := s.Jobs()
	statuses := make([]JobStatus, 0, len(jobs))
	for _, job := range jobs {
		st := s.Status(job)
		if filter != "" && st.State != filter {
			continue
		}
		statuses = append(statuses, st)
	}
	obs.ServeJSON(w, statuses)
}

// handleStatus serves one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id"))
		return
	}
	obs.ServeJSON(w, s.Status(job))
}

// handleCancel cancels a job: 200 with the (possibly still "running",
// about to turn cancelled) status, 404 unknown, 409 already terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id"))
		return
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, "conflict",
			"job %s is already %s", job.ID, s.Status(job).State)
		return
	}
	obs.ServeJSON(w, s.Status(job))
}

// handleResult serves a done job's Result: 200 with the document, 202 with
// the status while pending/running, 404 unknown, 409 for a job that ended
// without a result (failed, cancelled, interrupted). A state-dir server
// streams the persisted results/<id>.json with its size as Content-Length;
// a memory-only server encodes the in-memory result as it streams it.
// Both are the same bytes.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_job", "no job %q", r.PathValue("id"))
		return
	}
	st := s.Status(job)
	switch st.State {
	case StateDone:
	case StatePending, StateRunning:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		obs.ServeJSON(noStatusWriter{w}, st)
		return
	default:
		writeError(w, http.StatusConflict, "conflict",
			"job %s is %s and has no result: %s", job.ID, st.State, st.Error)
		return
	}
	s.mu.Lock()
	res, persisted := job.result, job.persisted
	s.mu.Unlock()
	if !persisted && res != nil {
		// A memory-only server, or a failed persist: encode from memory.
		rw := &sentWriter{ResponseWriter: w}
		w.Header().Set("Content-Type", "application/json")
		if err := writeResult(rw, res); err != nil && !rw.sent {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	f, err := os.Open(s.resultPath(job.ID))
	var fi os.FileInfo
	if err == nil {
		defer f.Close()
		fi, err = f.Stat()
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "missing_result",
			"job %s is done but its result document is gone: %v", job.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	io.Copy(w, f) //nolint:errcheck // the client went away
}

// sentWriter records whether any byte reached the response, after which
// an error can no longer become a status.
type sentWriter struct {
	http.ResponseWriter
	sent bool
}

func (w *sentWriter) Write(p []byte) (int, error) {
	w.sent = true
	return w.ResponseWriter.Write(p)
}

// handleDesigns lists the design names a job may target at the server's
// default scale and seed. An optional ?tier= query selects the suite tier
// ("standard" or "industrial"); omitted, the server's default tier answers,
// so pre-tier clients see exactly the response they always did.
func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	tier := r.URL.Query().Get("tier")
	if tier == "" {
		tier = s.opts.DefaultTier
	}
	if !layout.ValidTier(tier) {
		writeError(w, http.StatusBadRequest, "invalid_spec",
			"unknown tier %q (want %v)", tier, layout.Tiers())
		return
	}
	obs.ServeJSON(w, suiteDesigns(tier, s.opts.DefaultScale, s.opts.DefaultSeed))
}

// configInfo summarises one named preset for GET /configs: enough to pick
// a preset without consulting the source. Learner is always spelled out
// ("bagging" rather than the empty default) — the wire form never leaks the
// zero-value compatibility alias.
type configInfo struct {
	Name         string `json:"name"`
	Learner      string `json:"learner"`
	Features     int    `json:"features"`
	Neighborhood bool   `json:"neighborhood"`
	TwoLevel     bool   `json:"two_level,omitempty"`
	Ranking      bool   `json:"ranking,omitempty"`
}

// configsResponse is the GET /configs document.
type configsResponse struct {
	// Tier echoes the resolved suite tier the presets would run against.
	Tier string `json:"tier"`
	// Presets are the named configurations a ConfigSpec may reference.
	Presets []configInfo `json:"presets"`
	// Learners are the registered learner-family names a ConfigSpec's
	// learner field accepts.
	Learners []string `json:"learners"`
}

// handleConfigs lists the named attack-config presets and the registered
// learner families a job spec may select. The ?tier= query mirrors
// /designs: it validates against the suite tiers (400 on an unknown one)
// and is echoed in the response, so clients can pair the preset list with
// the design list of the same tier.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	tier := r.URL.Query().Get("tier")
	if tier == "" {
		tier = s.opts.DefaultTier
	}
	if !layout.ValidTier(tier) {
		writeError(w, http.StatusBadRequest, "invalid_spec",
			"unknown tier %q (want %v)", tier, layout.Tiers())
		return
	}
	presets := attack.ConfigPresets()
	infos := make([]configInfo, 0, len(presets))
	for _, c := range presets {
		learner := c.Family
		if fam, err := model.FamilyByName(c.Family); err == nil {
			learner = fam.Name()
		}
		infos = append(infos, configInfo{
			Name: c.Name, Learner: learner, Features: len(c.Features),
			Neighborhood: c.Neighborhood, TwoLevel: c.TwoLevel, Ranking: c.Ranking,
		})
	}
	obs.ServeJSON(w, configsResponse{Tier: tier, Presets: infos, Learners: model.Families()})
}

// noStatusWriter suppresses the WriteHeader a JSON helper would issue
// after the caller already wrote a non-200 status.
type noStatusWriter struct{ http.ResponseWriter }

func (noStatusWriter) WriteHeader(int) {}
