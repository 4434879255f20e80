package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
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
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyConfig is a run small enough for a unit test: a dozen vehicles,
// half a second of measured units, a short fleet-ops unit and a short
// signal_sim_us_p99 prefix.
func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 7, seconds: 0.5, trace: trace, nproc: 2,
		vehicles: 12, setups: 1, simCmds: 400, carRounds: carUnitRounds, opsRequests: 40,
		settleLimit: 3 * time.Second,
		dir:         t.TempDir(),
	}
}

// TestEveryMetricPrinted runs each workload untraced and traced at a
// tiny size and checks that every metric BENCHMARK.json names comes out
// with its unit, and that the run is correct.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(tinyConfig(t, wl.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.report.Correct || res.report.Failed != 0 || res.report.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", wl.Name, trace,
					res.report.Correct, res.report.Attempted, res.report.Failed, res.env.Problems)
			}
			for _, m := range want {
				got, ok := res.report.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.report.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.report.Metrics), len(want))
			}
		}
	}
}

// TestMisbehavingVehicleFailsTheRun makes one vehicle nack, then drop,
// its first push and expects the correctness check to fail.
func TestMisbehavingVehicleFailsTheRun(t *testing.T) {
	for _, fault := range []string{"nack", "drop"} {
		cfg := tinyConfig(t, wlOps, false)
		cfg.fault = fault
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("fault %s: %v", fault, err)
		}
		if res.report.Correct || res.report.Failed == 0 {
			t.Errorf("fault %s: run passed (correct=%v failed=%d)", fault, res.report.Correct, res.report.Failed)
		}
	}
}
