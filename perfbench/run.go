package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// simPrefix is how many commands signal_sim_us_p99 covers: a fixed
	// prefix of the seeded command stream, so the figure repeats exactly
	// for a seed whatever the machine's speed.
	simPrefix = 20000
	// ownShare is the share of the measured time the workload's own
	// path gets; the two other paths split the rest evenly, so that
	// every workload reports every metric.
	ownShare = 0.5
	// Unit sizes: the paths take turns in units this large, so each
	// path samples the machine across the whole run rather than in one
	// stretch of it. A vehicle unit is one block of package sizes, a
	// fleet-ops unit one second of arrivals at opsRate, a fleet-batch
	// unit one deploy→upgrade→uninstall cycle.
	carUnitRounds   = strata
	opsUnitRequests = int(opsRate)
	batchUnitCycles = 1
	// minPendingFrames is the ISO-TP queue a 64 KiB install must build
	// on the bus; less means the known CAN hotspot is not exercised.
	minPendingFrames = 9000
)

// paths are the three paths every run drives, in the order ties
// between them are broken.
var paths = [...]string{wlVehicle, wlOps, wlBatch}

// seeds derives independent input streams from the workload seed.
type seeds struct{ batch, ops, car int64 }

func deriveSeeds(seed int64) seeds {
	r := rand.New(rand.NewSource(seed))
	return seeds{batch: r.Int63(), ops: r.Int63(), car: r.Int63()}
}

// results holds what the units of each path measured.
type results struct {
	batch *batchResult
	ops   *opsResult
	car   *vehResult
}

func newResults() results {
	return results{batch: &batchResult{}, ops: &opsResult{}, car: &vehResult{}}
}

// headline is the samples of the latency a path is judged by first
// (batch settle, write settle or install time), used to report tracing
// overhead.
func (r results) headline(path string) []float64 {
	switch path {
	case wlBatch:
		return r.batch.settleMs.values()
	case wlOps:
		return r.ops.settleMs.values()
	default:
		return r.car.installMs.values()
	}
}

// attempted counts operator requests: batches, fleet-ops requests,
// phone commands and installs (a failed round counts once).
func (r results) attempted() int {
	return r.batch.batches + r.ops.attempted + r.car.cmds + r.car.installs + r.car.failed
}

func (r results) failed() int { return r.batch.failed + r.ops.failed + r.car.failed }

func (r results) problems() []string {
	return append(append(append([]string(nil), r.batch.problems...), r.ops.problems...), r.car.problems...)
}

// Series of samples the end-to-end metrics read, and the path that
// fills each.
const (
	sBatchSettle = iota
	sPush
	sPushP99
	sCycle
	sWrite
	sRead
	sBurst
	sBlock
	sInstall
	nSeries
)

var seriesPath = [nSeries]string{wlBatch, wlBatch, wlBatch, wlBatch, wlOps, wlOps, wlVehicle, wlVehicle, wlVehicle}

func (r results) series() [nSeries]*samples {
	return [nSeries]*samples{&r.batch.settleMs, &r.batch.pushMs, &r.batch.pushP99, &r.batch.cycleRate,
		&r.ops.settleMs, &r.ops.readMs, &r.car.burstRate, &r.car.blockRate, &r.car.installMs}
}

// unitMark records one unit of results: where its samples start in
// each series, the speed-probe times taken before it and the share of
// busy CPU time the hypervisor withheld while it ran.
type unitMark struct {
	path   string
	at     [nSeries]int
	probes []float64
	stolen float64
}

// phases is what one run measured. In a traced run results holds the
// traced units and untraced the own path's untraced ones; in an
// untraced run untraced stays empty. units marks the units of results.
type phases struct {
	results
	untraced   results
	units      []unitMark
	setupTimes []float64
}

// quiet returns the samples of each series from the quiet units only,
// those that lost no more CPU time to the hypervisor than the median
// unit of their path, with the probe times taken before them and a
// count of the kept units per path. Another guest's burst of load slows
// every unit it overlaps, by up to half; on a run that sees none, every
// unit has the same (zero) loss and all are kept.
func (ph *phases) quiet() (kept [nSeries][]float64, probes []float64, counts map[string]string) {
	var all [nSeries][]float64
	for i, s := range ph.series() {
		all[i] = s.values()
	}
	limit := make(map[string]float64)
	n := make(map[string]int)
	for _, p := range paths {
		var losses []float64
		for _, u := range ph.units {
			if u.path == p {
				losses = append(losses, u.stolen)
			}
		}
		limit[p] = median(losses)
	}
	for k, u := range ph.units {
		if u.stolen > limit[u.path] {
			continue
		}
		n[u.path]++
		probes = append(probes, u.probes...)
		end := [nSeries]int{}
		for i := range end {
			end[i] = len(all[i])
		}
		for _, next := range ph.units[k+1:] {
			if next.path == u.path {
				end = next.at
				break
			}
		}
		for i := range kept {
			if seriesPath[i] == u.path {
				kept[i] = append(kept[i], all[i][u.at[i]:end[i]]...)
			}
		}
	}
	counts = make(map[string]string)
	for _, p := range paths {
		total := 0
		for _, u := range ph.units {
			if u.path == p {
				total++
			}
		}
		counts[p] = fmt.Sprintf("%d of %d", n[p], total)
	}
	return kept, probes, counts
}

func run(cfg *config, log io.Writer) (*runResult, error) {
	steal0 := readCPUStat()
	tr := newTracer()
	sd := deriveSeeds(cfg.seed)
	ladder, err := newOTALadder()
	if err != nil {
		return nil, fmt.Errorf("building OTA packages: %w", err)
	}
	var f *fleet
	var rig *carRig
	ph := phases{results: newResults(), untraced: newResults()}
	for k := 0; k < cfg.setups; k++ {
		t0 := time.Now()
		dir := filepath.Join(cfg.dir, fmt.Sprint(k))
		if f, err = newFleet(cfg, tr, dir); err != nil {
			return nil, fmt.Errorf("setting up the fleet: %w", err)
		}
		if rig, err = newCarRig(); err != nil {
			f.close()
			return nil, fmt.Errorf("setting up the model car: %w", err)
		}
		if err := f.warm(); err != nil {
			f.close()
			return nil, err
		}
		ph.setupTimes = append(ph.setupTimes, time.Since(t0).Seconds())
		if k < cfg.setups-1 {
			f.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer f.close()
	logf(log, "%s: set up %d vehicles on %d shards in %.2fs (median of %d)", cfg.workload, cfg.vehicles, shardCount, median(ph.setupTimes), cfg.setups)

	rn := &runner{cfg: cfg, f: f, rig: rig, tr: tr,
		batchRng: rand.New(rand.NewSource(sd.batch)),
		opsRng:   rand.New(rand.NewSource(sd.ops)),
		carGen:   newRoundGen(sd.car, ladder),
	}
	if err := rn.measure(&ph, time.Duration(cfg.seconds*float64(time.Second))); err != nil {
		return nil, err
	}

	// Correctness outside every timed window.
	problems := append(ph.problems(), ph.untraced.problems()...)
	problems = append(problems, f.audit()...)
	if !cfg.trace {
		problems = append(problems, replayCheck(newRoundGen(sd.car, ladder), ph.car.simUs, cfg.simCmds)...)
	}
	if ph.car.installs >= strata && ph.car.maxPending < minPendingFrames {
		problems = append(problems, fmt.Sprintf("64 KiB installs queued only %d CAN frames, want >= %d", ph.car.maxPending, minPendingFrames))
	}
	attempted := ph.attempted() + ph.untraced.attempted()
	failed := ph.failed() + ph.untraced.failed()

	res := &runResult{
		report: report{Correct: failed == 0 && len(problems) == 0, Attempted: attempted, Failed: failed},
		env: environment{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			Nproc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), GoVersion: runtime.Version(),
			Vehicles: cfg.vehicles, Problems: problems,
			ObservePollUs: float64(observePoll) / float64(time.Microsecond),
			StealPct:      readCPUStat().stealPct(steal0),
			Samples: map[string]int{
				"setups": len(ph.setupTimes), "batches": ph.batch.settleMs.n(), "pushes": ph.batch.pushMs.n(),
				"writes": ph.ops.settleMs.n(), "reads": ph.ops.readMs.n(),
				"commands": ph.car.cmds, "installs": ph.car.installs,
			},
		},
	}
	for _, p := range problems {
		logf(log, "%s", p)
	}
	if cfg.trace {
		res.report.Metrics = layerMetrics(cfg, &ph, tr)
		if cfg.workload == wlOps {
			c := blockingCheck(res.report.Metrics, median(ph.untraced.headline(wlOps)))
			res.env.Blocking = &c
			if !c.Holds {
				p := fmt.Sprintf("trace: blocking self times sum to %.3f ms, more than untraced op_settle_ms_p50 %.3f ms + overhead %.3f ms",
					c.BlockingSelfMs, c.UntracedSettleMs, c.OverheadMs)
				logf(log, "%s", p)
				res.env.Problems = append(res.env.Problems, p)
				res.report.Correct = false
			}
		}
		if cfg.spanDir != "" {
			if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d%s", cfg.workload, cfg.seed, spanFileSuffix))
			all := append(append(append([]span(nil), ph.batch.spans...), ph.ops.spans...), ph.car.spans...)
			if err := writeSpans(path, all); err != nil {
				return nil, err
			}
			res.env.SpanFile = path
		}
	} else {
		res.report.Metrics = endToEndMetrics(cfg, &ph, &res.env)
	}
	return res, nil
}

// tracedCheck is the traced fleet-ops run's consistency check: the
// median self times of a write's blocking spans may add up to no more
// than the untraced op_settle_ms_p50 plus the tracing overhead.
type tracedCheck struct {
	BlockingSelfMs   float64 `json:"blockingSelfMs"`
	UntracedSettleMs float64 `json:"untracedSettleMs"`
	OverheadMs       float64 `json:"overheadMs"`
	Holds            bool    `json:"holds"`
}

func blockingCheck(m map[string]metric, untraced float64) tracedCheck {
	c := tracedCheck{
		BlockingSelfMs:   m["trace.blocking_self_ms_p50"].Value,
		UntracedSettleMs: untraced,
		OverheadMs:       m["trace.overhead_ms_p50"].Value,
	}
	c.Holds = c.BlockingSelfMs <= c.UntracedSettleMs+c.OverheadMs
	return c
}

// runner holds what the units of one run share: the topology, the
// model car and the seeded input streams, which continue from unit to
// unit.
type runner struct {
	cfg              *config
	f                *fleet
	rig              *carRig
	tr               *tracer
	batchRng, opsRng *rand.Rand
	carGen           *roundGen
}

// measure lets the three paths take turns, one unit at a time, until
// d of unit time has passed: the path furthest behind its share goes
// next. Every path runs at least once; the own path of a traced run at
// least twice, because there every second own unit runs untraced, so
// that the tracing overhead compares units spread over the same stretch
// of the run; an untraced run goes on until the vehicle path has sent
// the signal_sim_us_p99 prefix. Before each unit the fleet is quiesced,
// the collector runs and the speed probe is timed; none of it counts
// as unit time.
func (rn *runner) measure(ph *phases, d time.Duration) error {
	cfg := rn.cfg
	share := func(p string) float64 {
		if p == cfg.workload {
			return ownShare
		}
		return (1 - ownShare) / 2
	}
	need := func(p string) int {
		if p == cfg.workload && cfg.trace {
			return 2
		}
		return 1
	}
	used := make(map[string]time.Duration)
	units := make(map[string]int)
	var total time.Duration
	for {
		next := ""
		for _, p := range paths {
			if units[p] < need(p) {
				next = p
				break
			}
		}
		if next == "" && !cfg.trace && ph.car.cmds < cfg.simCmds {
			next = wlVehicle
		}
		if next == "" {
			if total >= d {
				return nil
			}
			behind := math.Inf(1)
			for _, p := range paths {
				if x := used[p].Seconds() / share(p); x < behind {
					behind, next = x, p
				}
			}
		}
		traced := cfg.trace && !(next == cfg.workload && units[next]%2 == 1)
		into := ph.results
		if cfg.trace && !traced {
			into = ph.untraced
		}
		if next == wlVehicle {
			runtime.GC()
		} else if err := rn.f.quiesce(); err != nil {
			return err
		}
		mark := unitMark{path: next}
		for k := 0; k < probesPerUnit; k++ {
			mark.probes = append(mark.probes, speedProbe())
		}
		for i, s := range into.series() {
			mark.at[i] = s.n()
		}
		cpu0 := readCPUStat()
		rn.tr.on.Store(traced)
		t0 := time.Now()
		rn.unit(next, into)
		el := time.Since(t0)
		rn.tr.on.Store(false)
		mark.stolen = readCPUStat().stolen(cpu0)
		if into == ph.results {
			ph.units = append(ph.units, mark)
		}
		spans := rn.tr.take()
		switch next {
		case wlVehicle:
			into.car.spans = append(into.car.spans, spans...)
		case wlOps:
			into.ops.spans = append(into.ops.spans, spans...)
		default:
			into.batch.spans = append(into.batch.spans, spans...)
		}
		used[next] += el
		units[next]++
		total += el
	}
}

// unit runs one unit of path, added to into.
func (rn *runner) unit(path string, into results) {
	switch path {
	case wlVehicle:
		rn.rig.runRounds(into.car, rn.carGen, rn.tr, rn.cfg.carRounds)
	case wlOps:
		rn.f.runOps(into.ops, genOps(rn.opsRng, rn.cfg.opsRequests, len(rn.f.vehicles), rn.f.widget))
	default:
		rn.f.runBatch(into.batch, batchUnitCycles, rn.batchRng)
	}
}

// replayCheck replays the command stream on a fresh car and demands
// the same simulated latency for every command of the prefix.
func replayCheck(gen *roundGen, simUs []float64, prefix int) []string {
	rig, err := newCarRig()
	if err != nil {
		return []string{fmt.Sprintf("replay: %v", err)}
	}
	res := &vehResult{}
	for res.cmds < prefix && res.failed == 0 {
		rig.runRounds(res, gen, newTracer(), 1)
	}
	if len(res.simUs) < prefix || len(simUs) < prefix {
		return []string{fmt.Sprintf("replay: %d and %d commands, want %d", len(simUs), len(res.simUs), prefix)}
	}
	for i := 0; i < prefix; i++ {
		if res.simUs[i] != simUs[i] {
			return []string{fmt.Sprintf("replay: command %d took %.0f sim-µs, first run %.0f", i, res.simUs[i], simUs[i])}
		}
	}
	return nil
}

// endToEndMetrics returns the end-to-end metrics, taken from the quiet
// units, and records in env the figures that go with them. The
// CPU-bound ones are reported at the reference speed, their raw values
// in env. setup_s and the fleet-ops latencies, which wait on timers,
// disk and wake-ups more than on the CPU, are reported as measured.
func endToEndMetrics(cfg *config, ph *phases, env *environment) map[string]metric {
	q, probes, counts := ph.quiet()
	v := ph.car
	sim := v.simUs[:min(len(v.simUs), cfg.simCmds)]
	m := map[string]metric{
		"setup_s":           {median(ph.setupTimes), "s"},
		"op_settle_ms_p50":  {median(q[sWrite]), "ms"},
		"read_ms_p50":       {median(q[sRead]), "ms"},
		"signal_sim_us_p99": {percentile(sim, 99), "us"},
	}
	// install_kib_per_s is the median over blocks of installs (each
	// block holds the full size mix); the overall ratio when no block
	// completed.
	installRate := median(q[sBlock])
	if len(q[sBlock]) == 0 {
		installRate = ratio(float64(v.installBytes)/1024, v.installWall.Seconds())
	}
	env.ProbeMs = median(probes)
	env.QuietUnits = counts
	env.Unbounded = map[string]float64{
		"op_settle_ms_p99": percentile(q[sWrite], 99), "read_ms_p99": percentile(q[sRead], 99),
		"install_ms_p50": median(q[sInstall]),
	}
	env.Raw = make(map[string]float64)
	slow := env.ProbeMs / probeRefMs
	for _, c := range []struct {
		name, unit string
		v          float64
	}{
		{"batch_settle_ms_p50", "ms", median(q[sBatchSettle])},
		{"batch_settle_ms_p90", "ms", percentile(q[sBatchSettle], 90)},
		{"vehicle_ops_per_s", "1/s", median(q[sCycle])},
		{"push_ms_p50", "ms", median(q[sPush])},
		{"push_ms_p99", "ms", median(q[sPushP99])},
		{"signal_cmds_per_s", "1/s", median(q[sBurst])},
		{"install_kib_per_s", "KiB/s", installRate},
	} {
		env.Raw[c.name] = c.v
		if strings.HasSuffix(c.unit, "/s") {
			m[c.name] = metric{c.v * slow, c.unit}
		} else {
			m[c.name] = metric{c.v / slow, c.unit}
		}
	}
	return m
}
