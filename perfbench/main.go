// Command perfbench is the repository benchmark: it drives the
// control path (federated trusted servers, journal, replication,
// pusher, protocol-level vehicles) and the data path (model car: ECM,
// PIRTE/VM, COM, CAN, sim) through their public functions and prints
// every metric named in BENCHMARK.json.
//
// Usage (from the repository root, through perfbench/run.sh, which
// builds this package first):
//
//	bash perfbench/run.sh --workload fleet-batch|fleet-ops|vehicle \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// the machine (nproc, GOMAXPROCS, CPU model) and the run's inputs.
// METRICS.md maps each per-layer metric to the end-to-end metric it
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	wlBatch   = "fleet-batch"
	wlOps     = "fleet-ops"
	wlVehicle = "vehicle"
)

// config is one run's inputs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nproc    int
	// vehicles is the fleet size; setups how often the topology is
	// built (the median is setup_s); simCmds the command prefix
	// signal_sim_us_p99 covers; carRounds and opsRequests the size of a
	// vehicle and a fleet-ops unit. The self-test shrinks them.
	vehicles    int
	setups      int
	simCmds     int
	carRounds   int
	opsRequests int
	// settleLimit bounds how long an operation may take to settle
	// before it counts as failed.
	settleLimit time.Duration
	// fault, when set, makes one vehicle misbehave ("nack" or "drop");
	// only the self-test sets it, to prove the correctness check bites.
	fault string
	// dir holds the journals; spanDir receives span dumps.
	dir     string
	spanDir string
}

// procsPerCPU sets GOMAXPROCS to this many Ps per CPU. The load
// generator shares the process with the servers it drives; with one P
// per CPU a generator goroutine woken by its timer waits until a server
// goroutine holding a P is preempted (up to 10 ms), which would show as
// request latency. Spare Ps let the kernel schedule it at once.
const procsPerCPU = 2

// gcPercent is the collector's GOGC. One heap holds the servers, 1,500
// protocol vehicles, the model car and the load generator; at the
// default of 100 the collector ran several times per batch cycle and
// set much of the batch figures' run-to-run spread. At 400 it runs a
// quarter as often; in a 30 s fleet-batch run the heap peaked at
// about 170 MB, under a 280 MB goal.
const gcPercent = 400

func main() {
	runtime.GOMAXPROCS(procsPerCPU * runtime.NumCPU())
	debug.SetGCPercent(gcPercent)
	cfg := &config{
		nproc: runtime.NumCPU(), vehicles: 1500, setups: 7,
		simCmds: simPrefix, carRounds: carUnitRounds, opsRequests: opsUnitRequests,
		settleLimit: 10 * time.Second,
	}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "fleet-batch, fleet-ops or vehicle")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds of measured units")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	switch cfg.workload {
	case wlBatch, wlOps, wlVehicle:
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	out := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	cfg.dir = filepath.Join(out, "data")
	cfg.spanDir = filepath.Join(".bench_build", "spans")
	res, err := run(cfg, os.Stderr)
	if rmErr := os.RemoveAll(out); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", out, rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(res.env)
	fmt.Printf("env %s\n", env)
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.report.Correct {
		os.Exit(1)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line's shape.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu"`
	GoVersion  string         `json:"go"`
	Vehicles   int            `json:"vehicles"`
	Samples    map[string]int `json:"samples"`
	Problems   []string       `json:"problems,omitempty"`
	SpanFile   string         `json:"spanFile,omitempty"`
	// ObservePollUs is the settle observer's poll period: settle times
	// and server.ack_to_settle_us_p50 include 0 to this much poll delay.
	ObservePollUs float64 `json:"observePollUs"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run. Tail latencies rise with it
	// (METRICS.md), so it tells a slow machine from a slow program.
	StealPct float64 `json:"stealPct"`
	// Unbounded holds figures the issue asks for that are printed here
	// rather than as metrics, because they follow the host more than
	// the program (METRICS.md): the fleet-ops p99s and install_ms_p50.
	Unbounded map[string]float64 `json:"unbounded"`
	// QuietUnits counts, per path, the units the end-to-end metrics
	// were taken from (run.go, quiet) out of all its units.
	QuietUnits map[string]string `json:"quietUnits,omitempty"`
	// ProbeMs is the run's median speed-probe time; Raw holds the
	// CPU-bound end-to-end figures as measured, before they were
	// brought to the reference speed (speed.go).
	ProbeMs float64            `json:"probeMs"`
	Raw     map[string]float64 `json:"raw,omitempty"`
	// Blocking is the traced fleet-ops run's span consistency check.
	Blocking *tracedCheck `json:"blocking,omitempty"`
}

type runResult struct {
	report report
	env    environment
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat is the machine-wide CPU time counters of /proc/stat: the
// total, the busy part (all but idle and iowait) and the part stolen by
// the hypervisor. Zero where the file is not there.
type cpuStat struct{ total, busy, steal uint64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	var st cpuStat
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += n
		switch i { // user nice system idle iowait irq softirq steal ...
		case 3, 4:
		case 7:
			st.steal = n
			st.busy += n
		default:
			st.busy += n
		}
	}
	return st
}

// stealPct is the steal share, in percent, of the CPU time between
// from and s.
func (s cpuStat) stealPct(from cpuStat) float64 {
	return 100 * ratio(float64(s.steal-from.steal), float64(s.total-from.total))
}

// stolen is the share of the busy CPU time between from and s that the
// hypervisor withheld: how much longer CPU-bound work took than it
// would have on a quiet host.
func (s cpuStat) stolen(from cpuStat) float64 {
	return ratio(float64(s.steal-from.steal), float64(s.busy-from.busy))
}

func logf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "perfbench: "+format+"\n", args...)
}
