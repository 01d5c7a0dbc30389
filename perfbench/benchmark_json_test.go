package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"maxsumdiv/internal/server"
	"maxsumdiv/perfbench/stats"
)

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}

	win := &tally{queries: 1, elapsed: time.Second}
	check(t, "end_to_end", s.EndToEnd, endToEnd(workloads[0], win, &tally{attempted: 1}, 1, []float64{1}, 1))
	ladder := make(map[string]float64)
	for name := range layerUnits {
		ladder[name] = 1
	}
	counters := []server.Stats{{}}
	check(t, "per_layer", s.PerLayer, perLayer(ladder, win, counters, counters, runtimeReading{}, runtimeReading{}, 1))
}

func check(t *testing.T, list string, declared []specMetric, emitted map[string]stats.MetricVal) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range declared {
		v, ok := emitted[m.Name]
		if !ok {
			t.Errorf("%s: %s is declared but not reported", list, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: %s unit %q declared, %q reported", list, m.Name, m.Unit, v.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: %s better = %q", list, m.Name, m.Better)
		}
		if (list == "end_to_end") != (m.Bound != nil) {
			t.Errorf("%s: %s bound presence wrong", list, m.Name)
		}
		seen[m.Name] = true
	}
	for name := range emitted {
		if !seen[name] {
			t.Errorf("%s: %s is reported but not declared", list, name)
		}
	}
}
