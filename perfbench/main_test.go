package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeRun runs a workload with a window short enough for a test. The
// checks below involve no timing: only names, units, verdicts and counts.
func smokeRun(t *testing.T, workload string, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: seed, seconds: 0.2, trace: trace, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d (%s)", workload,
			rep.result.Correct, rep.result.Attempted, rep.result.Failed, rep.host.FirstFailed)
	}
	return rep
}

func checkMetrics(t *testing.T, workload string, want []specMetric, got map[string]metricValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not printed", workload, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", workload, m.Name, v.Unit, m.Unit)
		}
	}
}

// deterministicCounts are per-layer counts that depend only on the inputs:
// every op of a run does the same work, so two traced runs with one seed
// print the same per-op values.
var deterministicCounts = []string{
	"ir.ops", "symexec.states", "symexec.steps", "symexec.forks",
	"symexec.paths", "symexec.pruned", "symexec.truncated",
	"solver.queries", "core.witness_replays", "detect.findings",
	"batch.units_analyzed", "batch.units_cached",
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			if _, ok := workloads[w]; !ok {
				t.Fatalf("workload %s unknown to the benchmark", w)
			}
			checkMetrics(t, w, spec.EndToEnd, smokeRun(t, w, 1, false).result.Metrics)

			a, b := smokeRun(t, w, 1, true), smokeRun(t, w, 1, true)
			checkMetrics(t, w, spec.PerLayer, a.result.Metrics)
			if a.host.InputHash != b.host.InputHash {
				t.Errorf("same seed, input hashes %s and %s", a.host.InputHash, b.host.InputHash)
			}
			for _, name := range deterministicCounts {
				if x, y := a.result.Metrics[name].Value, b.result.Metrics[name].Value; x != y {
					t.Errorf("same seed, %s = %v then %v", name, x, y)
				}
			}

			c := smokeRun(t, w, 2, true)
			if c.host.InputHash == a.host.InputHash {
				t.Errorf("seeds 1 and 2 give the same input hash %s", a.host.InputHash)
			}
			if c.host.VerdictsPerOp != a.host.VerdictsPerOp {
				t.Errorf("seeds 1 and 2 give %d and %d verdicts per op", a.host.VerdictsPerOp, c.host.VerdictsPerOp)
			}
		})
	}
}
