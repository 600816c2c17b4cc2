package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is one slow op, not a tail.
const minBeyond = 10

// tailPercentile returns the highest whole percentile of n samples that has
// at least minBeyond samples above it under the nearest-rank rule, or false
// when n is too small for any.
func tailPercentile(n int) (int, bool) {
	if n <= minBeyond {
		return 0, false
	}
	p := 100 * (n - minBeyond) / n
	return p, p >= 1
}

// percentile returns the p-th percentile of xs by the nearest-rank rule
// (the ceil(p*n/100)-th smallest sample) and whether it has at least
// minBeyond samples above it.
func percentile(xs []float64, p int) (float64, bool) {
	n := len(xs)
	if n == 0 || p < 1 || p > 100 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (p*n + 99) / 100
	return s[rank-1], n-rank >= minBeyond
}

// median returns the median of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// parseVmHWM extracts the peak resident set size in KiB from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line in process status")
}

// peakRSSMB is this process's VmHWM in MiB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(raw))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// hostSink keeps the host probe's result live so the loop is not removed.
var hostSink uint64

// hostRef times a fixed CPU and memory loop that uses no repository code:
// xorshift fills and dependent random reads over a 16 MiB table, larger
// than the caches of the hosts this runs on. Its time moves only with the
// host, so comparing it across runs tells host drift from program change.
// It returns the fastest of three repetitions.
func hostRef() float64 {
	const words = 1 << 21
	table := make([]uint64, words)
	for i := range table {
		table[i] = uint64(i) // fault the pages in before timing
	}
	best := math.Inf(1)
	x := uint64(0x9e3779b97f4a7c15)
	var sum uint64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for pass := 0; pass < 2; pass++ {
			for i := range table {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				table[i] += x
			}
			j := x & (words - 1)
			for i := 0; i < words/2; i++ {
				sum += table[j]
				j = (table[j] ^ uint64(i)) & (words - 1)
			}
		}
		best = min(best, time.Since(start).Seconds())
	}
	hostSink += sum
	// Hand the table back to the OS so it does not count in peak RSS.
	table = nil
	debug.FreeOSMemory()
	return best
}

// goStats is a snapshot of the Go runtime's cumulative counters.
type goStats struct {
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
	pause   uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, pause: ms.PauseTotalNs}
}

// processCPU is the user plus system CPU time this process has used, 0 if
// it cannot be read.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layers reports the runtime counters accrued between before and s.
func (s goStats) layers(before goStats, out map[string]float64) {
	out["go.cpu_s"] = (s.cpu - before.cpu).Seconds()
	out["go.alloc_mb"] = float64(s.alloc-before.alloc) / (1 << 20)
	out["go.mallocs"] = float64(s.mallocs - before.mallocs)
	out["go.gc_cycles"] = float64(s.gcs - before.gcs)
	out["go.gc_pause_s"] = float64(s.pause-before.pause) / 1e9
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
