package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into the program, recorded from outside it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // the op the call served
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, which is how untraced phases run: every method is a
// no-op on nil.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// count adds n to the named count, recorded at the same boundary as the
// span it describes.
func (t *tracer) count(name string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += float64(n)
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// countsSnapshot copies the recorded counts.
func (t *tracer) countsSnapshot() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// writeFile writes the recorded spans as a JSON array.
func (t *tracer) writeFile(path string) error {
	raw, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children (concurrent calls under one parent) are counted once.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		slices.SortFunc(ivs, func(a, b iv) int {
			switch {
			case a.lo < b.lo:
				return -1
			case a.lo > b.lo:
				return 1
			}
			return 0
		})
		covered, reach := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotals sums self time (seconds) and counts spans by name.
func layerTotals(spans []span) (self map[string]float64, count map[string]int) {
	st := selfTimes(spans)
	self = map[string]float64{}
	count = map[string]int{}
	for i, s := range spans {
		self[s.Name] += float64(st[i]) / 1e9
		count[s.Name]++
	}
	return self, count
}
