package cli

import (
	"flag"
	"io"
	"testing"

	"repro/internal/sweep"
)

// newTestApp builds an App on a ContinueOnError FlagSet so flag errors
// surface as errors instead of exiting the test binary.
func newTestApp(t *testing.T, name string) (*App, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return New(name, fs), fs
}

func TestNewRegistersSharedFlags(t *testing.T) {
	_, fs := newTestApp(t, "x")
	for _, name := range []string{
		"scale", "seed", "workers", "v", "log-format",
		"report", "metrics", "cpuprofile", "memprofile", "version",
		"serve-obs", "trace",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestParsePopulatesFields(t *testing.T) {
	app, _ := newTestApp(t, "x")
	o := app.Parse([]string{"-scale", "0.5", "-seed", "7", "-workers", "3"})
	if o != nil {
		t.Error("observability context is not nil without obs flags")
	}
	if app.Scale != 0.5 || app.Seed != 7 || app.Workers() != 3 {
		t.Errorf("parsed scale=%v seed=%v workers=%v, want 0.5 7 3",
			app.Scale, app.Seed, app.Workers())
	}
}

func TestParseDefaults(t *testing.T) {
	app, _ := newTestApp(t, "x")
	app.Parse(nil)
	if app.Scale != 1.0 || app.Seed != 1 || app.Workers() != 0 {
		t.Errorf("defaults scale=%v seed=%v workers=%v, want 1.0 1 0",
			app.Scale, app.Seed, app.Workers())
	}
}

// TestSuiteFromFlags: App.Suite generates the suite the flags pin and
// carries their worker bound, model store and checkpoint.
func TestSuiteFromFlags(t *testing.T) {
	app, _ := newTestApp(t, "x")
	dir := t.TempDir()
	app.Parse([]string{"-tier", "industrial", "-scale", "0.02", "-seed", "4", "-workers", "2", "-checkpoint-dir", dir})
	s := app.Suite(nil)
	want := sweep.Provenance{Tier: "industrial", Scale: 0.02, Seed: 4}
	if s.Prov != want || len(s.Designs) != 3 || s.Designs[0].Name != "sbx1" {
		t.Errorf("suite %+v with %d designs, want %+v and the three sbx designs", s.Prov, len(s.Designs), want)
	}
	if s.Workers != 2 || s.Models == nil || s.Checkpoint == nil || s.Checkpoint.Dir() != dir {
		t.Errorf("suite run context: workers %d, models %v, checkpoint %v; want 2, a store, %s",
			s.Workers, s.Models, s.Checkpoint, dir)
	}
}

func TestVersionExitsZero(t *testing.T) {
	app, _ := newTestApp(t, "x")
	code := captureExit(t, func() { app.Parse([]string{"-version"}) })
	if code != 0 {
		t.Errorf("-version exited %d, want 0", code)
	}
}

func TestBadLogFormatIsFatal(t *testing.T) {
	app, _ := newTestApp(t, "x")
	code := captureExit(t, func() { app.Parse([]string{"-v", "-log-format", "yaml"}) })
	if code != 1 {
		t.Errorf("bad -log-format exited %d, want 1", code)
	}
}

func TestFinishStampsSharedConfig(t *testing.T) {
	app, _ := newTestApp(t, "x")
	app.Parse([]string{"-scale", "2", "-seed", "9"})
	config := map[string]any{"seed": int64(42)} // command override wins
	app.Finish(nil, config, nil)
	if config["scale"] != 2.0 {
		t.Errorf("scale = %v, want 2.0", config["scale"])
	}
	if config["seed"] != int64(42) {
		t.Errorf("seed = %v, want the command's own 42", config["seed"])
	}
	if config["workers"] != 0 {
		t.Errorf("workers = %v, want 0", config["workers"])
	}
}

// captureExit runs fn with osExit replaced by a panic-based stub and
// reports the exit code fn requested; it fails the test if fn returns
// without exiting.
func captureExit(t *testing.T, fn func()) (code int) {
	t.Helper()
	type exitPanic struct{ code int }
	orig := osExit
	osExit = func(c int) { panic(exitPanic{c}) }
	defer func() {
		osExit = orig
		if r := recover(); r != nil {
			if ep, ok := r.(exitPanic); ok {
				code = ep.code
				return
			}
			panic(r)
		}
		t.Fatal("function returned without exiting")
	}()
	fn()
	return 0
}
