package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// marshalResult is the reference encoding writeResult must reproduce.
func marshalResult(res *Result) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// checkWriteResult requires writeResult to write exactly marshalResult's
// bytes, or both to fail with nothing written.
func checkWriteResult(t *testing.T, res *Result) {
	t.Helper()
	want, werr := marshalResult(res)
	var got bytes.Buffer
	gerr := writeResult(&got, res)
	switch {
	case werr != nil && gerr != nil:
		if got.Len() != 0 {
			t.Fatalf("writeResult failed (%v) after writing %d bytes", gerr, got.Len())
		}
	case werr != nil || gerr != nil:
		t.Fatalf("MarshalIndent error %v, writeResult error %v", werr, gerr)
	case !bytes.Equal(got.Bytes(), want):
		t.Fatalf("writeResult differs from MarshalIndent at byte %d:\n got  %q\n want %q",
			firstDiff(got.Bytes(), want), clip(got.Bytes()), clip(want))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

// evalResult wraps an evaluation section in an attack result.
func evalResult(ev *Eval, prox bool) *Result {
	seed := testSeed
	res := &Result{
		ID:   "j-000001",
		Kind: KindAttack,
		Spec: JobSpec{Kind: KindAttack, Design: "sb1", Layer: 8, Scale: testScale, Seed: &seed,
			Config: &ConfigSpec{Preset: "ML-9"}},
		ElapsedNS: 12345,
		Attack: &AttackResult{Design: "sb1", Layer: 8, Config: "ML-9", VPins: ev.N,
			RadiusNorm: -1, AccuracyAtK: map[string]float64{"1": 0.25, "2": 0.5},
			EvalDigest: "0123abcd", Evaluation: ev},
	}
	if prox {
		res.Kind = KindProximity
		res.Attack.Proximity = &ProximityResult{Success: 0.125, FixedSuccess: 0.0625, BestFrac: 0.01, ValidationNS: 7}
	}
	return res
}

// TestWriteResultMatchesMarshalIndent pins the writer's bytes to
// encoding/json's on hand-built sections: nil and empty slices and rows,
// the float32 values at each format boundary, and random bit patterns.
func TestWriteResultMatchesMarshalIndent(t *testing.T) {
	f32 := func(bits uint32) float32 { return math.Float32frombits(bits) }
	boundaries := []float32{0, f32(0x80000000), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		3.5e21, 1e21, 9.99999e20, -3.5e21, f32(1), f32(0x007fffff), f32(0x00800000),
		math.MaxFloat32, -math.MaxFloat32, 123456789, 1.5e-45, 0.1, 1e-10, 1.0000001e-9,
		8400, -8400, 1 << 24, -1 << 24, 1<<24 - 1, -(1<<24 - 1), 1<<24 + 2, 1e10, 0.5e7, 2.5}
	rows := make([][]Cand, 0, len(boundaries))
	for i, x := range boundaries {
		rows = append(rows, []Cand{{Other: int32(i), P: x, D: -x}, {Other: -int32(i) - 1, P: x, D: x},
			{Other: 1, P: -x, D: 1}})
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]float32, 0, 200000)
	for len(random) < cap(random) {
		x := f32(rng.Uint32())
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			continue
		}
		random = append(random, x)
	}
	randRows := make([][]Cand, 0, len(random)/200)
	for i := 0; i+200 <= len(random); i += 200 {
		row := make([]Cand, 100)
		for j := range row {
			row[j] = Cand{Other: int32(rng.Uint32()), P: random[i+2*j], D: random[i+2*j+1]}
		}
		randRows = append(randRows, row)
	}
	cases := map[string]*Eval{
		"nil sections":   {N: 0},
		"empty sections": {N: 0, Truth: []int32{}, TruthP: []float32{}, Cands: [][]Cand{}},
		"nil and empty rows": {N: 3, Truth: []int32{2, -1, 0}, TruthP: []float32{-1, 0.5, 0},
			Cands: [][]Cand{nil, {}, {{Other: 1, P: 0.5, D: 2}}}},
		"boundaries": {N: len(boundaries), Truth: []int32{math.MinInt32, math.MaxInt32},
			TruthP: boundaries, Cands: rows},
		"random bits": {N: -7, TruthP: random[:1000], Cands: randRows},
	}
	for name, ev := range cases {
		for _, prox := range []bool{false, true} {
			t.Run(name, func(t *testing.T) { checkWriteResult(t, evalResult(ev, prox)) })
		}
	}
	t.Run("no evaluation", func(t *testing.T) {
		checkWriteResult(t, &Result{ID: "j-000002", Kind: KindTrain, Train: &TrainResult{SpecHash: "x"}})
		checkWriteResult(t, &Result{ID: "j-000003", Kind: KindAttack, Attack: &AttackResult{EvalDigest: "y"}})
		checkWriteResult(t, &Result{ID: "j-000004", Kind: KindSweep, Sweep: &SweepResult{Layer: 8}})
	})
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		t.Run("unsupported", func(t *testing.T) {
			checkWriteResult(t, evalResult(&Eval{N: 1, TruthP: []float32{bad}}, false))
			checkWriteResult(t, evalResult(&Eval{N: 1, Cands: [][]Cand{{{P: 0.5, D: bad}}}}, true))
			if err := writeResult(io.Discard, evalResult(&Eval{N: 1, Cands: [][]Cand{{{P: bad}}}}, false)); err == nil {
				t.Errorf("writeResult accepted %v", bad)
			}
		})
	}
}

// TestWriteResultChunks checks the writer streams a large section in
// bounded chunks and reports a failing writer's error.
func TestWriteResultChunks(t *testing.T) {
	row := make([]Cand, 100)
	ev := &Eval{N: 5000, Cands: make([][]Cand, 5000)}
	for i := range ev.Cands {
		ev.Cands[i] = row
	}
	cw := &chunkRecorder{}
	if err := writeResult(cw, evalResult(ev, false)); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 10 || cw.largest > chunkBytes+4<<10 {
		t.Errorf("%d writes, largest %d B; want chunks of about %d B", cw.writes, cw.largest, chunkBytes)
	}
	failing := errors.New("disk full")
	if err := writeResult(failWriter{failing}, evalResult(ev, false)); !errors.Is(err, failing) {
		t.Errorf("writeResult over a failing writer returned %v", err)
	}
}

type chunkRecorder struct{ writes, largest int }

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes++
	c.largest = max(c.largest, len(p))
	return len(p), nil
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// fixture is the package fixture's layer-8 attack result, computed once.
var fixture struct {
	once sync.Once
	res  *Result
	err  error
}

// fixtureResult runs the tests' canonical attack job (sb1, layer 8, ML-9,
// at testScale and testSeed) through a memory-only server once and returns
// its result.
func fixtureResult(tb testing.TB) *Result {
	tb.Helper()
	fixture.once.Do(func() {
		s, err := New(Options{Pool: 1, Obs: obs.New(obs.Options{Command: "serve-test"})})
		if err != nil {
			fixture.err = err
			return
		}
		defer s.Close()
		job, err := s.Submit(attackSpec("sb1"))
		if err != nil {
			fixture.err = err
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := job.Wait(ctx); err != nil {
			fixture.err = err
			return
		}
		res, ok := s.Result(job)
		if !ok {
			fixture.err = errors.New("fixture attack job did not finish done: " + s.Status(job).Error)
			return
		}
		fixture.res = res
	})
	if fixture.err != nil {
		tb.Fatal(fixture.err)
	}
	return fixture.res
}

// fuzzEval decodes a fuzz input into an evaluation section. Byte 0 makes
// truth (bit 0), truth_p (bit 1) and the candidate lists (bit 2) nil; the
// rest is little-endian 32-bit words: the v-pin count (mod 4096), n, the
// truth ids, the truth_p bit patterns, then per v-pin a list length (mod
// 1024, where 1023 means a nil list) and each candidate's id, p bits and
// d bits. Words past the end read as zero, and the v-pin count and list
// lengths are capped by the words left, so the section grows with the
// input.
func fuzzEval(data []byte) *Eval {
	if len(data) == 0 {
		return &Eval{}
	}
	flags, words := data[0], data[1:]
	left := func() int { return len(words) / 4 }
	next := func() uint32 {
		if len(words) < 4 {
			return 0
		}
		w := binary.LittleEndian.Uint32(words)
		words = words[4:]
		return w
	}
	v := min(int(next()%4096), left())
	ev := &Eval{N: int(int32(next()))}
	if flags&1 == 0 {
		ev.Truth = make([]int32, v)
		for i := range ev.Truth {
			ev.Truth[i] = int32(next())
		}
	}
	if flags&2 == 0 {
		ev.TruthP = make([]float32, v)
		for i := range ev.TruthP {
			ev.TruthP[i] = math.Float32frombits(next())
		}
	}
	if flags&4 == 0 {
		ev.Cands = make([][]Cand, v)
		for i := range ev.Cands {
			n := int(next() % 1024)
			if n == 1023 {
				continue
			}
			row := make([]Cand, min(n, left()/3))
			for j := range row {
				row[j] = Cand{Other: int32(next()), P: math.Float32frombits(next()), D: math.Float32frombits(next())}
			}
			ev.Cands[i] = row
		}
	}
	return ev
}

// fuzzBytes is fuzzEval's inverse for sections it can express.
func fuzzBytes(ev *Eval) []byte {
	var flags byte
	if ev.Truth == nil {
		flags |= 1
	}
	if ev.TruthP == nil {
		flags |= 2
	}
	if ev.Cands == nil {
		flags |= 4
	}
	out := []byte{flags}
	word := func(w uint32) { out = binary.LittleEndian.AppendUint32(out, w) }
	word(uint32(max(len(ev.Truth), len(ev.TruthP), len(ev.Cands))))
	word(uint32(int32(ev.N)))
	for _, x := range ev.Truth {
		word(uint32(x))
	}
	for _, p := range ev.TruthP {
		word(math.Float32bits(p))
	}
	for _, row := range ev.Cands {
		if row == nil {
			word(1023)
			continue
		}
		word(uint32(len(row)))
		for _, c := range row {
			word(uint32(c.Other))
			word(math.Float32bits(c.P))
			word(math.Float32bits(c.D))
		}
	}
	return out
}

// FuzzWriteResult requires the writer to reproduce encoding/json byte for
// byte, or to fail where it fails, on arbitrary sections and spec strings.
func FuzzWriteResult(f *testing.F) {
	served := fixtureResult(f).Attack.Evaluation
	// The served section, cut to its first v-pins: the engine minimizes
	// each new interesting input, which takes long on a large one.
	k := min(served.N, 4)
	cut := &Eval{N: served.N, Truth: served.Truth[:k], TruthP: served.TruthP[:k], Cands: served.Cands[:k]}
	if !bytes.Equal(fuzzBytes(fuzzEval(fuzzBytes(cut))), fuzzBytes(cut)) {
		f.Fatal("fuzzEval does not invert fuzzBytes on the fixture section")
	}
	f.Add(fuzzBytes(cut), "sb1", false)
	f.Add(fuzzBytes(cut), "sb1", true)
	f.Add([]byte{}, "", false)
	f.Add([]byte{7}, "a\nb", true)
	var special []byte
	for _, bits := range []uint32{0, 0x80000000, 1, 0x80000001, 0x007fffff, math.Float32bits(1e-7),
		math.Float32bits(1e21), math.Float32bits(-3.5e21), 0x7fc00000, 0x7f800000, 0xff800000} {
		special = binary.LittleEndian.AppendUint32(special, bits)
	}
	f.Add(append([]byte{0, 3, 0, 0, 0, 0xf9, 0xff, 0xff, 0xff}, special...), "<>&\"\\\n\xff\xfe", true)
	f.Add(append([]byte{1, 2, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0}, special[:24]...), "\"eval_digest\": \"x\",\n    ", false)
	f.Fuzz(func(t *testing.T, data []byte, spec string, prox bool) {
		res := evalResult(fuzzEval(data), prox)
		res.Spec.Design, res.Spec.Config.Name = spec, spec
		res.Attack.Design, res.Attack.Config, res.Attack.EvalDigest = spec, spec, spec
		res.Attack.AccuracyAtK[spec] = 1
		checkWriteResult(t, res)
	})
}

// TestServeResultBytes runs every job kind on a state-dir server and on a
// memory-only one: each served body and each results/<id>.json must be
// MarshalIndent's bytes of the job's result, and a server restarted on the
// same directory must serve the same bytes.
func TestServeResultBytes(t *testing.T) {
	seed := testSeed
	specs := []JobSpec{
		{Kind: KindTrain, Design: "sb1", Layer: 8, Scale: testScale, Seed: &seed, Config: &ConfigSpec{Preset: "ML-9"}},
		attackSpec("sb1"),
		{Kind: KindProximity, Design: "sb5", Layer: 8, Scale: testScale, Seed: &seed, Config: &ConfigSpec{Preset: "ML-9"}},
		sweepSpec(0, 0),
		sweepSpec(1, 2),
	}
	// fetch GETs a result; a state-dir server must send its length.
	fetch := func(t *testing.T, url string, sized bool) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s: %d %s: %.200s", url, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		if (sized || resp.ContentLength >= 0) && resp.ContentLength != int64(len(body)) {
			t.Fatalf("GET %s: Content-Length %d, body %d B", url, resp.ContentLength, len(body))
		}
		return body
	}
	for _, stateDir := range []bool{true, false} {
		name := map[bool]string{true: "state-dir", false: "memory-only"}[stateDir]
		t.Run(name, func(t *testing.T) {
			opts := Options{Pool: 2, DefaultScale: testScale, DefaultSeed: testSeed, CheckpointDir: t.TempDir()}
			if stateDir {
				opts.StateDir = t.TempDir()
			}
			s, ts := httpFixture(t, opts)
			want := map[string][]byte{}
			for _, spec := range specs {
				job, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				waitTerminal(t, job, 10*time.Minute)
				res, ok := s.Result(job)
				if !ok {
					t.Fatalf("%s job %s ended %s: %s", spec.Kind, job.ID, s.Status(job).State, s.Status(job).Error)
				}
				doc, err := marshalResult(res)
				if err != nil {
					t.Fatal(err)
				}
				want[job.ID] = doc
				if got := fetch(t, ts.URL+"/jobs/"+job.ID+"/result", stateDir); !bytes.Equal(got, doc) {
					t.Errorf("%s job %s: served %d B differ from MarshalIndent's %d B at byte %d",
						spec.Kind, job.ID, len(got), len(doc), firstDiff(got, doc))
				}
				if !stateDir {
					continue
				}
				file, err := os.ReadFile(filepath.Join(opts.StateDir, "results", job.ID+".json"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(file, doc) {
					t.Errorf("%s job %s: results file differs from MarshalIndent at byte %d",
						spec.Kind, job.ID, firstDiff(file, doc))
				}
			}
			if !stateDir {
				return
			}
			s.Close()
			ts.Close()
			_, ts2 := httpFixture(t, opts)
			for id, doc := range want {
				if got := fetch(t, ts2.URL+"/jobs/"+id+"/result", true); !bytes.Equal(got, doc) {
					t.Errorf("job %s after a restart: served bytes differ at byte %d", id, firstDiff(got, doc))
				}
			}
		})
	}
}

// TestServeResultPersistedAtDone checks that on a state-dir server a job's
// results/<id>.json is complete by the time Wait returns, and that a job
// ending otherwise leaves no document.
func TestServeResultPersistedAtDone(t *testing.T) {
	dir := t.TempDir()
	row := make([]Cand, 50)
	for i := range row {
		row[i] = Cand{Other: int32(i), P: 1 / float32(i+1), D: float32(i)}
	}
	runner := func(ctx context.Context, s *Server, job *Job) (*Result, error) {
		if job.Spec.Design == "sb5" {
			return nil, errors.New("boom")
		}
		ev := &Eval{N: 1000, Cands: make([][]Cand, 1000)}
		for i := range ev.Cands {
			ev.Cands[i] = row
		}
		res := evalResult(ev, false)
		res.ID = job.ID
		return res, nil
	}
	s := newTestServer(t, Options{Pool: 2, StateDir: dir, runner: runner,
		DefaultScale: testScale, DefaultSeed: testSeed})
	for i := 0; i < 4; i++ {
		job, err := s.Submit(attackSpec("sb1"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, 30*time.Second)
		file, err := os.ReadFile(filepath.Join(dir, "results", job.ID+".json"))
		if err != nil {
			t.Fatalf("job %s is done but its document is not on disk: %v", job.ID, err)
		}
		res, _ := s.Result(job)
		if doc, _ := marshalResult(res); !bytes.Equal(file, doc) {
			t.Fatalf("job %s: results file is not the full document (%d of %d B)", job.ID, len(file), len(doc))
		}
	}
	failed, err := s.Submit(attackSpec("sb5"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, failed, 30*time.Second)
	if st := s.Status(failed).State; st != StateFailed {
		t.Fatalf("failing job ended %s", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "results", failed.ID+".json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed job left a result document (stat: %v)", err)
	}
}

// TestServeResultUnencodable serves a result encoding/json cannot encode:
// the persist fails and leaves no file, the job still ends done, and both
// kinds of server answer 500 before writing any of the body.
func TestServeResultUnencodable(t *testing.T) {
	runner := func(ctx context.Context, s *Server, job *Job) (*Result, error) {
		return evalResult(&Eval{N: 1, TruthP: []float32{float32(math.NaN())}}, false), nil
	}
	for _, dir := range []string{t.TempDir(), ""} {
		s, ts := httpFixture(t, Options{Pool: 1, StateDir: dir, runner: runner})
		job, err := s.Submit(attackSpec("sb1"))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job, 30*time.Second)
		if st := s.Status(job).State; st != StateDone {
			t.Fatalf("state dir %q: job ended %s", dir, st)
		}
		if dir != "" {
			if _, err := os.Stat(filepath.Join(dir, "results", job.ID+".json")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("unencodable result left a document (stat: %v)", err)
			}
		}
		resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || bytes.Contains(body, []byte(`"id"`)) {
			t.Errorf("state dir %q: served %d %q, want a bare 500", dir, resp.StatusCode, body)
		}
	}
}

// sink keeps benchmark results live.
var sink []byte

// BenchmarkWriteResult encodes the package fixture's layer-8 attack result
// through writeResult and through json.MarshalIndent, the encoding it
// replaced.
func BenchmarkWriteResult(b *testing.B) {
	res := fixtureResult(b)
	doc, err := marshalResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("writeResult", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeResult(io.Discard, res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MarshalIndent", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sink, err = json.MarshalIndent(res, "", "  "); err != nil {
				b.Fatal(err)
			}
		}
	})
}
