package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/serve"
)

const (
	// mixPool and mixWorkers size the server: two jobs at a time, one
	// engine worker each, so engine threads stay at the host's two vCPUs.
	mixPool    = 2
	mixWorkers = 1
	// mixClients closed-loop clients each send their next job only after
	// the previous one's result is decoded.
	mixClients = 2
	// mixScale keeps a pass over the job list at 5–10 s on the reference
	// host, so that a run holds several and reports their median; at scale
	// 1.0 a pass took 22–26 s and a run held one or two.
	mixScale = 0.5
	// directSample is how many distinct specs are re-run in-process after
	// the measured phase, and sweepSample how many merged sweep folds.
	directSample = 6
	sweepSample  = 2
)

// accuracyKs are the |LoC| sizes the server reports accuracy at.
var accuracyKs = []int{1, 2, 5, 10, 20, 50, 100}

// serveMix is one run of the serve-mix workload.
type serveMix struct {
	seed  int64
	suite *suite // the harness's own layer-8 instances, for the direct runs
	items []jobItem
	srv   *server
	// served maps each spec key to the digest its first occurrence served;
	// merged maps each design to the merged sweep's digest.
	served map[string]string
	merged map[string]string
	// checked holds the direct runs' digests by label; digestS and metricsS
	// time Evaluation.Digest and the accuracy metrics on them.
	checked           map[string]string
	digestS, metricsS []float64
}

func (m *serveMix) setup(rs *runState, tr *tracer) error {
	m.seed = rs.seed
	s, err := buildSuite(tr, layout.SuiteConfig{Tier: layout.TierStandard, Scale: mixScale, Seed: suiteSeed}, mixLayer)
	if err != nil {
		return err
	}
	m.suite = s
	m.items = buildJobs(rs.seed)
	m.srv, err = startServer(rs.workdir)
	return err
}

func (m *serveMix) close() {
	if m.srv != nil {
		if err := m.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "splitbench: stop server:", err)
		}
		m.srv = nil
	}
}

func (m *serveMix) digests() map[string]string { return m.checked }

// server is an in-process job server behind a loopback listener, with a
// fresh state directory.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	dir  string
	done chan struct{}
}

func startServer(workdir string) (*server, error) {
	dir, err := os.MkdirTemp(workdir, "serve-state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{
		Pool: mixPool, Workers: mixWorkers, StateDir: dir,
		DefaultTier: layout.TierStandard, DefaultScale: mixScale, DefaultSeed: suiteSeed,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		dir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, stops the job server and removes its state.
func (s *server) stop() error {
	err := s.hs.Close()
	<-s.done
	s.srv.Close()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// scrape reads the server's /metrics counters.
func (s *server) scrape(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// jobResult is what a client keeps of one job.
type jobResult struct {
	kind  serve.JobKind
	key   string
	shard int // sweep jobs: the shard, 0 for the merge
	err   error
	// latency runs from submission until the result document is decoded,
	// with the job's own finish timestamp standing in for the poll that
	// saw it finish: the poll spacing does not quantize it.
	latency        time.Duration
	queueWait, run time.Duration // from the job's created/started/finished stamps
	polls, idle    int           // status polls, and those that found the job unfinished
	bytes          int           // size of the result document
	trainNS        int64
	testNS         int64
	proxNS         int64
	pairs          int64
	digest         string
	units          *serve.UnitStats
	designs        map[string]string // merged sweep: design -> digest
}

// client is one closed-loop HTTP client; tr, when set, times every call.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// pending is a submitted job.
type pending struct {
	id        string
	submitted time.Time
	root      int
	res       jobResult
}

// start submits a job.
func (c *client) start(spec serve.JobSpec, op, parent int) *pending {
	p := &pending{root: c.tr.begin("serve.job", parent, op), res: jobResult{kind: spec.Kind, key: specKey(spec), shard: spec.Shard}}
	body, err := json.Marshal(spec)
	if err != nil {
		p.res.err = err
		return p
	}
	sp := c.tr.begin("serve.submit", p.root, op)
	p.submitted = time.Now()
	var st serve.JobStatus
	err = c.call(http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted, &st, nil)
	c.tr.end(sp)
	p.id, p.res.err = st.ID, err
	return p
}

// finish polls the job until it ends and fetches its result document.
func (c *client) finish(p *pending, op int) jobResult {
	defer c.tr.end(p.root)
	r := &p.res
	if r.err != nil {
		return *r
	}
	var st serve.JobStatus
	for {
		time.Sleep(pollDelay(time.Since(p.submitted)))
		sp := c.tr.begin("serve.poll", p.root, op)
		r.err = c.call(http.MethodGet, "/jobs/"+p.id, nil, http.StatusOK, &st, nil)
		c.tr.end(sp)
		r.polls++
		if r.err != nil {
			return *r
		}
		if st.State.Terminal() {
			break
		}
		r.idle++
	}
	if st.State != serve.StateDone || st.Started == nil || st.Finished == nil {
		r.err = fmt.Errorf("job %s ended %s: %s", p.id, st.State, st.Error)
		return *r
	}
	sp := c.tr.begin("serve.result", p.root, op)
	t := time.Now()
	var res serve.Result
	r.err = c.call(http.MethodGet, "/jobs/"+p.id+"/result", nil, http.StatusOK, &res, &r.bytes)
	fetch := time.Since(t)
	c.tr.end(sp)
	if r.err != nil {
		return *r
	}
	r.latency = st.Finished.Sub(p.submitted) + fetch
	r.queueWait = st.Started.Sub(st.Created)
	r.run = st.Finished.Sub(*st.Started)
	switch {
	case res.Attack != nil:
		a := res.Attack
		r.trainNS, r.testNS, r.pairs, r.digest = a.TrainNS, a.TestNS, a.PairsScored, a.EvalDigest
		if a.Proximity != nil {
			r.proxNS = a.Proximity.ValidationNS
		}
	case res.Sweep != nil:
		r.units = res.Sweep.Units
		r.designs = map[string]string{}
		for _, cr := range res.Sweep.Configs {
			for _, d := range cr.Designs {
				r.designs[d.Design] = d.EvalDigest
			}
		}
	default:
		r.err = fmt.Errorf("job %s: result has no attack or sweep section", p.id)
	}
	return *r
}

// call runs one API request, requires the wanted status, and decodes the
// JSON body into out as it streams in; size, when set, receives the body's
// length.
func (c *client) call(method, path string, body io.Reader, want int, out any, size *int) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
	}
	cr := &countingReader{r: resp.Body}
	if err := json.NewDecoder(cr).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if size != nil {
		*size = cr.n
	}
	return nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// pollDelay spaces status polls at a tenth of the job's age, between 1 ms
// and 10 ms. Latency is read from the job's finish stamp, so the spacing
// sets only how many polls are wasted.
func pollDelay(age time.Duration) time.Duration {
	return min(max(age/10, time.Millisecond), 10*time.Millisecond)
}

// sweep runs the sharded sweep: both shards submitted together, then the
// merge once both are done.
func (c *client) sweep(op int) []jobResult {
	root := c.tr.begin("serve.sweep", -1, op)
	defer c.tr.end(root)
	shards := []*pending{c.start(sweepSpec(1, 2), op, root), c.start(sweepSpec(2, 2), op, root)}
	var out []jobResult
	for _, p := range shards {
		out = append(out, c.finish(p, op))
	}
	return append(out, c.finish(c.start(sweepSpec(0, 0), op, root), op))
}

// runList works through the job list with mixClients closed-loop clients.
func (m *serveMix) runList(tr *tracer) ([][]jobResult, time.Duration) {
	tp := &http.Transport{MaxIdleConnsPerHost: mixClients}
	defer tp.CloseIdleConnections()
	c := &client{base: m.srv.base, hc: &http.Client{Transport: tp, Timeout: 2 * time.Minute}, tr: tr}
	results := make([][]jobResult, len(m.items))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range mixClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(m.items) {
					return
				}
				if m.items[i].sweep {
					results[i] = c.sweep(i)
				} else {
					results[i] = []jobResult{c.finish(c.start(m.items[i].spec, i, -1), i)}
				}
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// mixStats summarises one pass over the job list.
type mixStats struct {
	latency []float64 // attack and proximity jobs, seconds
	jobs    []jobResult
	shards  []jobResult
	merge   *jobResult
}

// tally counts every job as an op, checks that repeated specs served the
// digest their first occurrence served (also across passes, through
// m.served), and summarises the pass.
func (m *serveMix) tally(rs *runState, results [][]jobResult, wall time.Duration) (phase, mixStats) {
	var ph phase
	var st mixStats
	var pairs int64
	if m.served == nil {
		m.served = map[string]string{}
	}
	for _, rr := range results {
		for i := range rr {
			r := rr[i]
			ph.ops++
			rs.op(r.err)
			if r.err != nil {
				continue
			}
			if r.kind == serve.KindSweep {
				if r.shard == 0 {
					st.merge = &rr[i]
					if m.merged == nil {
						m.merged = r.designs
					} else {
						rs.check(equalDigests(r.designs, m.merged), "merged sweep digests differ between passes")
					}
				} else {
					st.shards = append(st.shards, r)
				}
				continue
			}
			pairs += r.pairs
			st.latency = append(st.latency, r.latency.Seconds())
			st.jobs = append(st.jobs, r)
			if d, ok := m.served[r.key]; ok {
				rs.check(d == r.digest, "repeat of %s served digest %.16s, first %.16s", r.key, r.digest, d)
			} else {
				m.served[r.key] = r.digest
			}
		}
	}
	done := 0
	for _, s := range st.shards {
		if s.units != nil {
			done += s.units.Done
		}
	}
	rs.check(len(st.shards) == 2 && done == len(mixDesigns), "sweep shards computed %d units, want %d", done, len(mixDesigns))
	rs.check(st.merge != nil && len(st.merge.designs) == len(mixDesigns), "merged sweep lacks designs")
	ph.wall = ratio(wall.Seconds(), float64(ph.ops))
	ph.rate = ratio(float64(pairs), wall.Seconds())
	return ph, st
}

// restart replaces the server by a fresh one with an empty state
// directory, so that the next pass starts from a cold model store.
func (m *serveMix) restart(rs *runState) error {
	if m.srv != nil {
		err := m.srv.stop()
		m.srv = nil
		if err != nil {
			return fmt.Errorf("stop the server: %w", err)
		}
	}
	var err error
	m.srv, err = startServer(rs.workdir)
	return err
}

// measure works through the job list in passes, each on a fresh server,
// until the next pass, judged by the last one's length, would end past
// --seconds, and at least once. It reports the median pass; job latencies
// are pooled over the passes.
func (m *serveMix) measure(rs *runState) phase {
	var walls, rates, latency, passes, cpus []float64
	ops := 0
	var last time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start)+last <= rs.seconds {
		if len(walls) > 0 {
			if err := m.restart(rs); err != nil {
				rs.check(false, "restart the server: %v", err)
				break
			}
		}
		runtime.GC() // start from a collected heap, without set-up's or the last pass's garbage
		c := processCPU()
		results, wall := m.runList(nil)
		cpus = append(cpus, (processCPU() - c).Seconds())
		ph, st := m.tally(rs, results, wall)
		last = wall
		passes = append(passes, wall.Seconds())
		ops += ph.ops
		walls = append(walls, ph.wall)
		rates = append(rates, ph.rate)
		latency = append(latency, st.latency...)
	}
	p50 := median(latency)
	p90, ok := percentile(latency, 90)
	tail, _ := tailPercentile(len(latency))
	return phase{ops: ops, wall: median(walls), rate: median(rates),
		detail: fmt.Sprintf("pass_s=%.4g cpu_s=%.4g jobs=%d op_p50_s=%.4f op_p90_s=%.4f (p90 has >=%d beyond: %v; highest such percentile p%d) samples=%d",
			passes, cpus, ops, p50, p90, minBeyond, ok, tail, len(latency))}
}

// directConfig resolves a mix configuration the way the server resolves
// its wire form; it covers the fields the mix sets.
func directConfig(cs serve.ConfigSpec) (attack.Config, error) {
	cfg, ok := attack.ConfigByName(cs.Preset)
	if !ok {
		return cfg, fmt.Errorf("unknown preset %q", cs.Preset)
	}
	if cs.TwoLevel != nil && *cs.TwoLevel {
		cfg = attack.WithTwoLevel(cfg)
	}
	if cs.Learner != "" {
		cfg = attack.WithFamily(cfg, cs.Learner)
	}
	return cfg, nil
}

// label names a mix spec for digests.json.
func label(spec serve.JobSpec) string {
	c := spec.Config.Preset
	if spec.Config.TwoLevel != nil && *spec.Config.TwoLevel {
		c += "+two_level"
	}
	if spec.Config.Learner != "" {
		c += "+" + spec.Config.Learner
	}
	return fmt.Sprintf("%s %s %s", spec.Kind, spec.Design, c)
}

// check re-runs a seeded sample of distinct specs, and a seeded sample of
// the merged sweep's folds, in-process and compares digests.
func (m *serveMix) check(rs *runState) {
	m.checked = map[string]string{}
	r := rand.New(rand.NewSource(rng.Mix(m.seed, streamCheck)))
	space := mixSpace()
	for _, i := range r.Perm(len(space))[:directSample] {
		spec := space[i]
		cfg, err := directConfig(*spec.Config)
		if err != nil {
			rs.check(false, "%s: %v", label(spec), err)
			continue
		}
		d, err := m.direct(cfg, spec.Design, false)
		served, ok := m.served[specKey(spec)]
		rs.check(err == nil && ok && served == d, "%s: served digest %.16s, direct %.16s (%v)", label(spec), served, d, err)
		m.checked[label(spec)] = d
	}
	cfg, _ := attack.ConfigByName(sweepPreset)
	for _, i := range r.Perm(len(mixDesigns))[:sweepSample] {
		design := mixDesigns[i]
		d, err := m.direct(cfg, design, true)
		rs.check(err == nil && m.merged[design] == d, "sweep %s %s: merged digest %.16s, direct %.16s (%v)",
			sweepPreset, design, m.merged[design], d, err)
		m.checked["sweep "+sweepPreset+" "+design] = d
	}
}

// direct runs one spec in-process and returns its digest, timing the
// digest and the accuracy metrics the server computes for a result.
func (m *serveMix) direct(cfg attack.Config, design string, fold bool) (string, error) {
	cfg.Seed = suiteSeed
	cfg.Workers = mixWorkers
	idx, err := m.suite.index(design)
	if err != nil {
		return "", err
	}
	run := attack.RunTargetInstances
	if fold {
		run = attack.RunFoldInstances
	}
	ev, _, err := run(cfg, m.suite.insts, idx)
	if err != nil {
		return "", err
	}
	t := time.Now()
	d := ev.Digest()
	m.digestS = append(m.digestS, time.Since(t).Seconds())
	t = time.Now()
	acc := ev.MaxAccuracy()
	for _, k := range accuracyKs {
		acc += ev.AccuracyAtK(k)
	}
	m.metricsS = append(m.metricsS, time.Since(t).Seconds())
	hostSink += uint64(acc)
	return d, nil
}

// traceDesign is the serve-mix fold whose training and scoring the traced
// run re-drives.
const traceDesign = "sb10"

// traced runs the job list again on a fresh server with every HTTP call a
// span, then re-drives generation, one fold's training and its scoring.
func (m *serveMix) traced(rs *runState, tr *tracer, untraced phase) map[string]float64 {
	out := map[string]float64{}
	if err := m.restart(rs); err != nil {
		rs.check(false, "restart the server for the traced phase: %v", err)
		return out
	}
	results, wall := m.runList(tr)
	ph, st := m.tally(rs, results, wall)
	out["trace.overhead_s"] = ph.wall - untraced.wall
	hc := &http.Client{Timeout: time.Minute}
	prom, err := m.srv.scrape(hc)
	rs.check(err == nil, "scrape /metrics: %v", err)

	spans := tr.snapshot()
	self, count := layerTotals(spans)
	out["serve.submit_s"] = ratio(self["serve.submit"], float64(count["serve.submit"]))
	out["serve.result_s"] = ratio(self["serve.result"], float64(count["serve.result"]))
	var wait, run, over, mb, train, test, prox []float64
	polls, idle := 0, 0
	for _, rr := range results {
		for _, r := range rr {
			polls += r.polls
			idle += r.idle
		}
	}
	for _, r := range st.jobs {
		wait = append(wait, r.queueWait.Seconds())
		run = append(run, r.run.Seconds())
		over = append(over, r.run.Seconds()-float64(r.trainNS+r.testNS+r.proxNS)/1e9)
		mb = append(mb, float64(r.bytes)/(1<<20))
		train = append(train, float64(r.trainNS)/1e9)
		test = append(test, float64(r.testNS)/1e9)
		if r.kind == serve.KindProximity {
			prox = append(prox, float64(r.proxNS)/1e9)
		}
	}
	out["serve.queue_wait_s"] = mean(wait)
	out["serve.run_s"] = mean(run)
	out["serve.overhead_s"] = mean(over)
	out["serve.result_mb"] = mean(mb)
	out["serve.poll_waste"] = ratio(float64(idle), float64(polls))
	out["serve.instances_hit_ratio"] = ratio(prom["serve_instances_hit"], prom["serve_instances_hit"]+prom["serve_instances_miss"])
	out["model.store_hit_ratio"] = ratio(prom["model_artifacts_hit"], prom["model_artifacts_hit"]+prom["model_artifacts_miss"])
	out["serve.op_p50_s"] = median(st.latency)
	out["serve.op_p90_s"], _ = percentile(st.latency, 90)
	out["serve.jobs"] = float64(len(st.latency))
	out["attack.train_s"] = mean(train)
	out["attack.test_s"] = mean(test)
	out["attack.proximity_s"] = mean(prox)
	out["attack.digest_s"] = mean(m.digestS)
	out["attack.metrics_s"] = mean(m.metricsS)
	var shard []float64
	for _, s := range st.shards {
		shard = append(shard, s.run.Seconds())
	}
	out["sweep.shard_s"] = mean(shard)
	if st.merge != nil {
		out["sweep.merge_s"] = st.merge.run.Seconds()
	}
	out["sweep.units_done"] = prom["sweep_units_done"]
	out["sweep.units_skipped"] = prom["sweep_units_skipped"]

	cfg := attack.Imp11()
	cfg.Seed = suiteSeed
	cfg.Workers = mixWorkers
	fold, err := m.suite.index(traceDesign)
	if err != nil {
		rs.check(false, "%v", err)
		return out
	}
	ev, _, err := runFold(tr, cfg, m.suite.insts, fold)
	rs.op(err)
	if err == nil {
		redriveLayers(rs, tr, m.suite, cfg, []int{fold}, fold, ev, out)
	}
	return out
}
