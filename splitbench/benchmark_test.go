package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metrics the
// harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// The harness may hold more workloads than BENCHMARK.json lists (see
	// README.md: industrial-l4 runs by hand only), never fewer.
	if len(b.Workloads) == 0 {
		t.Error("BENCHMARK.json lists no workloads")
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the harness", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, harness %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > b.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, setup_s bound %v]", m.Name, m.Bound, b.EndToEnd[0].Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, harness %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
