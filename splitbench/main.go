// Command splitbench is the repository's benchmark: it runs one workload of
// the split-manufacturing attack engine or of its job server, checks that
// the outputs are right, and prints the workload's metrics as one JSON
// object on the last line of standard output — the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a traced run. See README.md for
// the workloads, the metrics, and how they map onto the program's layers.
//
//	bash splitbench/run.sh --workload loo-l6 --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests are recorded in digests.json.
const defaultSeed = 1

// suiteSeed seeds every workload's design suite, and serve-mix's job specs,
// whatever the run seed. The work of an op follows the generated designs
// (see README.md, Workloads), so a suite that moved with the run seed would
// add its own spread to every timing; the run seed drives the attack's
// random streams, the oracle's sample, the job order and the check samples.
const suiteSeed = defaultSeed

// setupRepeats is how many times a run sets its workload up: once in the
// measuring process and once in each of setupRepeats-1 child processes.
// setup_s is the median.
const setupRepeats = 5

// Streams of the harness's own seeded choices, derived from the run seed
// with rng.Mix.
const (
	streamOracle int64 = 1001 + iota
	streamJobs
	streamCheck
)

//go:embed digests.json
var recordedDigests []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"pairs_per_s", "pairs/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run and their units.
// A metric of a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"layout.gen_s", "s"}, {"netlist.cells_s", "s"}, {"place.place_s", "s"},
	{"netlist.nets_s", "s"}, {"route.route_s", "s"}, {"layout.cells", "count"},
	{"split.cut_s", "s"}, {"split.vpins", "count"},
	{"pairs.prep_s", "s"},
	{"model.sampling_s", "s"}, {"model.samples", "count"},
	{"ml.train_s", "s"}, {"ml.trees", "count"}, {"ml.nodes", "count"},
	{"pairs.enumerate_s", "s"}, {"pairs.candidates", "count"},
	{"pairs.retain_s", "s"}, {"pairs.retained", "count"}, {"pairs.retained_ratio", "ratio"},
	{"pairs.regions", "count"}, {"pairs.coverage", "ratio"},
	{"features.extract_s", "s"},
	{"ml.kernel_s", "s"}, {"ml.kernel_ns_per_row", "ns"}, {"pairs.rows", "count"}, {"pairs.batches", "count"},
	{"attack.score_s", "s"},
	{"attack.digest_s", "s"}, {"attack.metrics_s", "s"}, {"attack.train_s", "s"},
	{"attack.test_s", "s"}, {"attack.proximity_s", "s"},
	{"model.store_hit_ratio", "ratio"},
	{"sweep.shard_s", "s"}, {"sweep.merge_s", "s"}, {"sweep.units_done", "count"}, {"sweep.units_skipped", "count"},
	{"serve.submit_s", "s"}, {"serve.queue_wait_s", "s"}, {"serve.run_s", "s"}, {"serve.overhead_s", "s"},
	{"serve.result_s", "s"}, {"serve.result_mb", "MB"}, {"serve.poll_waste", "ratio"},
	{"serve.instances_hit_ratio", "ratio"},
	{"serve.op_p50_s", "s"}, {"serve.op_p90_s", "s"}, {"serve.jobs", "count"},
	{"go.cpu_s", "s"}, {"go.alloc_mb", "MB"}, {"go.mallocs", "count"}, {"go.gc_cycles", "count"}, {"go.gc_pause_s", "s"},
	{"trace.overhead_s", "s"}, {"host.ref_s", "s"},
}

// runState carries one run's settings and its tally: attempted counts the
// measured ops plus every correctness check, failed those that failed.
type runState struct {
	seed      int64
	seconds   time.Duration
	workdir   string
	traced    bool
	attempted int
	failed    int
}

// op records one measured op and whether it failed.
func (rs *runState) op(err error) {
	rs.attempted++
	if err != nil {
		rs.failed++
		fmt.Fprintln(os.Stderr, "splitbench: op failed:", err)
	}
}

// check records one correctness check.
func (rs *runState) check(ok bool, format string, args ...any) {
	rs.attempted++
	if !ok {
		rs.failed++
		fmt.Fprintf(os.Stderr, "splitbench: check failed: "+format+"\n", args...)
	}
}

// phase is what one measured phase did.
type phase struct {
	ops int
	// wall is the seconds per op: the median op of a batch workload, the
	// phase's wall time ÷ jobs for serve-mix. rate is the candidate pairs
	// scored per second over the same ops.
	wall, rate float64
	detail     string // a workload-specific summary line
}

// workload is one benchmark workload. A run calls setup, measure, check,
// then (traced runs only) traced, then close.
type workload interface {
	// setup builds the workload's inputs; tr, when non-nil, times the calls.
	setup(rs *runState, tr *tracer) error
	// measure runs the measured phase with tracing off.
	measure(rs *runState) phase
	// check runs the correctness checks that follow the measured phase.
	check(rs *runState)
	// traced runs the traced phase and the re-drives and returns the
	// per-layer metrics.
	traced(rs *runState, tr *tracer, untraced phase) map[string]float64
	// digests returns the evaluation digests the run produced, by name.
	digests() map[string]string
	// close releases what setup acquired.
	close()
}

// workloads names every workload.
var workloads = map[string]func() workload{
	"loo-l6":        func() workload { return newBatch(looL6) },
	"industrial-l4": func() workload { return newBatch(industrialL4) },
	"serve-mix":     func() workload { return &serveMix{} },
}

// workloadNames lists the workloads for messages.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func main() {
	os.Exit(run(time.Now(), os.Args[1:], os.Stdout))
}

// run executes one invocation and returns the exit code.
func run(start time.Time, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("splitbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "minimum length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced phase and prints the per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "splitbench-work"), "directory for server state and trace files")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print its set-up time and exit (the run's own child processes use this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "splitbench: need -workload (one of %v), -trace 0|1 and -seconds > 0\n",
			workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		return 1
	}
	rs := &runState{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), workdir: *workdir,
		traced: *trace == 1}
	w := newW()

	if *setupOnly {
		err := w.setup(rs, nil)
		d := time.Since(start)
		w.close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "splitbench: setup:", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"setup_s\": %v}\n", d.Seconds())
		return 0
	}

	hostStart := hostRef()
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	setupStart := time.Now()
	if err := w.setup(rs, tr); err != nil {
		fmt.Fprintln(os.Stderr, "splitbench: setup:", err)
		w.close()
		return 1
	}
	setups := []float64{time.Since(setupStart).Seconds()}

	before := readGoStats()
	ph := w.measure(rs)
	after := readGoStats()
	rss, err := peakRSSMB()
	rs.check(err == nil, "read peak RSS: %v", err)
	w.check(rs)
	if rs.seed == defaultSeed {
		checkRecorded(rs, *name, w.digests())
	}
	var layers map[string]float64
	if tr != nil {
		layers = w.traced(rs, tr, ph)
		after.layers(before, layers)
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "splitbench: write trace:", err)
		} else {
			fmt.Fprintln(os.Stderr, "splitbench: spans written to", path)
		}
	}
	w.close()

	for i := 1; i < setupRepeats; i++ {
		d, err := childSetup(*name, *seed, *workdir)
		rs.check(err == nil, "set-up child %d: %v", i, err)
		if err == nil {
			setups = append(setups, d)
		}
	}
	hostEnd := hostRef()

	e2e := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      ph.wall,
		"pairs_per_s": ph.rate,
		"peak_rss_mb": rss,
	}
	fmt.Fprintf(stdout, "splitbench workload=%s seed=%d trace=%d ops=%d %s\n", *name, *seed, *trace, ph.ops, ph.detail)
	fmt.Fprintf(stdout, "setup_s samples=%v\n", setups)
	fmt.Fprintf(stdout, "host.ref_s start=%.4f end=%.4f\n", hostStart, hostEnd)
	fmt.Fprintf(stdout, "end_to_end %s\n", formatMetrics(e2e, endToEnd))
	digs, _ := json.Marshal(w.digests())
	fmt.Fprintf(stdout, "digests %s\n", digs)

	rep := report{Correct: rs.failed == 0, Attempted: rs.attempted, Failed: rs.failed, Metrics: map[string]metric{}}
	if tr == nil {
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: finite(e2e[m.name]), Unit: m.unit}
		}
	} else {
		layers["host.ref_s"] = (hostStart + hostEnd) / 2
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{Value: finite(layers[m.name]), Unit: m.unit}
		}
		fmt.Fprintf(stdout, "per_layer %s\n", formatMetrics(layers, perLayer))
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// formatMetrics renders name=value pairs in list order.
func formatMetrics(vals map[string]float64, list []struct{ name, unit string }) string {
	parts := make([]string, len(list))
	for i, m := range list {
		parts[i] = fmt.Sprintf("%s=%s%s", m.name, strconv.FormatFloat(vals[m.name], 'g', 6, 64), m.unit)
	}
	return strings.Join(parts, " ")
}

// childSetup sets the workload up in a child process and returns its
// set-up time.
func childSetup(name string, seed int64, workdir string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-workdir", workdir, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var res struct {
		SetupS *float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(out, &res); err != nil || res.SetupS == nil {
		return 0, errors.Join(errors.New("no set-up time in child output"), err)
	}
	return *res.SetupS, nil
}

// checkRecorded compares the run's digests with the ones recorded for the
// default seed.
func checkRecorded(rs *runState, name string, got map[string]string) {
	var rec map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &rec); err != nil {
		rs.check(false, "decode digests.json: %v", err)
		return
	}
	want := rec[name]
	rs.check(len(want) > 0, "digests.json records nothing for %s", name)
	for k, d := range want {
		rs.check(got[k] == d, "%s digest of %s is %.16s, recorded %.16s", name, k, got[k], d)
	}
}
