package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {1, 0, false}, {10, 0, false},
		{11, 9, true}, {20, 50, true}, {99, 89, true}, {100, 90, true}, {120, 91, true}, {1000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if !ok {
			continue
		}
		// The rule's percentile has at least minBeyond samples above it,
		// and the next whole percentile has fewer.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		if _, beyond := percentile(xs, got); !beyond {
			t.Errorf("n=%d: p%d has fewer than %d samples beyond it", tc.n, got, minBeyond)
		}
		if _, beyond := percentile(xs, got+1); beyond {
			t.Errorf("n=%d: p%d also has %d samples beyond it", tc.n, got+1, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs[:50], 90); v != 95 || ok {
		t.Errorf("p90 of 51..100 = %v, %v; want 95, false (only 5 beyond)", v, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsplitbench\nVmPeak:\t  812344 kB\nVmHWM:\t  270408 kB\nVmRSS:\t  101232 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 270408 {
		t.Fatalf("parseVmHWM = %d, %v; want 270408", kb, err)
	}
	for _, bad := range []string{"", "VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed input", bad)
		}
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB = %v, %v", mb, err)
	}
}
