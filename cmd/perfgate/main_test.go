package main

import (
	"io"
	"testing"
)

const contention = "BenchmarkExtE_CANContention"

// benchFile builds a run with the given 64 KiB install ns/op and
// simulated times; the 4 KiB install takes 250 µs.
func benchFile(cpu string, ns64K, install, frame float64) File {
	return File{CPU: cpu, Benchmarks: map[string]map[string]float64{
		install4K:  {"ns/op": 250e3, "allocs/op": 233, "sim-us/op": 170_000},
		install64K: {"ns/op": ns64K, "allocs/op": 1664, "sim-us/op": install},
		contention: {"ns/op": 130, "allocs/op": 0, "sim-us/frame": frame},
	}}
}

func TestCompareGatesSimTimeExactly(t *testing.T) {
	base := benchFile("base", 4e6, 2_470_000, 126)
	for _, c := range []struct {
		name          string
		install, wire float64
		pass          bool
	}{
		{"unchanged", 2_470_000, 126, true},
		{"install slower", 2_480_000, 126, false},
		{"install faster", 2_460_000, 126, false},
		{"frame time moved", 2_470_000, 125.5, false},
	} {
		// A different CPU: ns/op is informational, sim-us still gates.
		if got := compare(base, benchFile("other", 4.2e6, c.install, c.wire), 0.10, io.Discard); got != c.pass {
			t.Errorf("%s: gate passed = %v, want %v", c.name, got, c.pass)
		}
	}

	missing := benchFile("other", 4e6, 2_470_000, 126)
	delete(missing.Benchmarks[contention], "sim-us/frame")
	if compare(base, missing, 0.10, io.Discard) {
		t.Error("gate passed with sim-us/frame missing from the fresh run")
	}
}

func TestCompareGatesInstallScaling(t *testing.T) {
	base := benchFile("base", 4e6, 2_470_000, 126)
	// 20x the 4 KiB install is the limit, on any machine.
	if !compare(base, benchFile("other", 5e6, 2_470_000, 126), 0.10, io.Discard) {
		t.Error("gate failed a 64 KiB install at 20x the 4 KiB one")
	}
	if compare(base, benchFile("other", 5.1e6, 2_470_000, 126), 0.10, io.Discard) {
		t.Error("gate passed a 64 KiB install at 20.4x the 4 KiB one")
	}
}

func TestCompareGatesRecordsPerCommit(t *testing.T) {
	const journaled = "BenchmarkDeployJournaled/wal/vehicles=1024"
	withAmortization := func(v float64, set bool) File {
		f := benchFile("other", 4e6, 2_470_000, 126)
		f.Benchmarks[journaled] = map[string]float64{"ns/op": 1e9}
		if set {
			f.Benchmarks[journaled][recordsPerCommit] = v
		}
		return f
	}
	base := withAmortization(100, true)
	for _, c := range []struct {
		name string
		got  float64
		set  bool
		pass bool
	}{
		{"unchanged", 100, true, true},
		{"better", 180, true, true},
		{"at half", 50, true, true},
		{"below half", 49.9, true, false},
		{"missing", 0, false, false},
	} {
		if got := compare(base, withAmortization(c.got, c.set), 0.10, io.Discard); got != c.pass {
			t.Errorf("%s: gate passed = %v, want %v", c.name, got, c.pass)
		}
	}
}

func TestParseBenchKeepsBestAmortization(t *testing.T) {
	out := `cpu: test
BenchmarkDeployJournaled/wal/vehicles=1024-2   1   900000000 ns/op   80.0 records/commit
BenchmarkDeployJournaled/wal/vehicles=1024-2   1   800000000 ns/op   95.5 records/commit
`
	m := parseBench(out).Benchmarks["BenchmarkDeployJournaled/wal/vehicles=1024"]
	if m[recordsPerCommit] != 95.5 || m["ns/op"] != 800000000 {
		t.Fatalf("merged %v, want the higher records/commit and the lower ns/op", m)
	}
}
