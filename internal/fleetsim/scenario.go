package fleetsim

import (
	"errors"
	"fmt"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/journal"
	"dynautosar/internal/sim"
)

// A Scenario is a declarative description of one fleet run: how many
// vehicles, which apps exist, when workload is launched and which
// faults are injected along the virtual timeline. Everything random —
// fault victims, jitter, per-vehicle ack delays — derives from Seed,
// so a scenario's fault schedule replays exactly from its seed (see
// the determinism contract in DESIGN.md).
type Scenario struct {
	Name     string
	Vehicles int
	Seed     int64
	// Duration is the virtual length of the scenario window. The run
	// extends past it only to let already-launched operations settle.
	Duration sim.Duration
	// Speedup caps virtual progress at Speedup virtual microseconds per
	// real microsecond, so virtual fault times stay meaningful relative
	// to the real server's concurrent work. 0 selects the default (4);
	// negative disables pacing (run as fast as possible).
	Speedup int
	// Journal forces a durable server even without a ServerCrash fault.
	Journal bool
	// Shards > 1 runs a federated control plane: that many leader
	// servers partition the fleet by consistent hashing, each journaling
	// to its own directory and replicating synchronously into a follower
	// replica that a ShardCrash fault can promote. Always journaled.
	Shards int
	// DataDir is the journal directory; empty selects a fresh temporary
	// directory that is removed when the run ends.
	DataDir string
	// ConnectWindow spreads the initial dial-in herd over [0, window).
	ConnectWindow sim.Duration
	// AckMin/AckMax bound the default per-message vehicle ack delay.
	AckMin, AckMax sim.Duration
	Apps           []api.App
	Workload       []WorkItem
	Faults         []Fault
	// RealTimeLimit caps the run in wall time; exceeding it with
	// unsettled operations is an invariant violation (stuck fleet).
	RealTimeLimit time.Duration
}

// WorkKind selects the operation a WorkItem launches.
type WorkKind string

const (
	// WorkBatchDeploy deploys App to the selected fleet as one batch.
	WorkBatchDeploy WorkKind = "batch-deploy"
	// WorkBatchUpgrade upgrades App to ToApp across the selected fleet.
	WorkBatchUpgrade WorkKind = "batch-upgrade"
	// WorkBatchUninstall removes App from the selected fleet.
	WorkBatchUninstall WorkKind = "batch-uninstall"
	// WorkDeploy launches one single-vehicle deploy per selected
	// vehicle (individual operations, not a batch).
	WorkDeploy WorkKind = "deploy"
	// WorkRollout upgrades App to ToApp progressively: health-gated
	// canary waves with automatic fleet rollback when a gate trips.
	WorkRollout WorkKind = "rollout"
)

// WorkItem launches one operation (or one operation per vehicle for
// WorkDeploy) at a virtual time.
type WorkItem struct {
	At   sim.Duration
	Kind WorkKind
	App  core.AppName
	// ToApp is the upgrade target for WorkBatchUpgrade.
	ToApp core.AppName
	// Fraction selects a random sample of the fleet; <=0 or >=1 selects
	// every vehicle.
	Fraction float64
	// Group names a shared vehicle sample: items with the same Group hit
	// the same vehicles (deploy something, then uninstall it from the
	// same sample).
	Group string
	// Waves is the wave plan for WorkRollout; empty selects the server's
	// default canary plan (1 vehicle, 10%, all).
	Waves []api.RolloutWave
	// Health is the health-gate policy for WorkRollout; nil selects the
	// server's strictest (zero) policy.
	Health *api.RolloutHealthPolicy
}

// sdur formats a virtual duration for traces and errors.
func sdur(d sim.Duration) string { return fmt.Sprintf("%.3fs", float64(d)/float64(sim.Second)) }

// Fault is one entry of the fault catalogue. Implementations schedule
// their virtual-time events on the fleet's engine; all of them draw
// victims from the fleet's seeded RNG, in declaration order, so the
// fault schedule is a pure function of the scenario seed.
type Fault interface {
	schedule(f *Fleet)
}

// Churn cuts one random vehicle's server link at a steady virtual rate
// between Start and Stop; the vehicle redials with capped exponential
// backoff. Cuts that land on an already-offline vehicle are no-ops but
// still consume their RNG draw, keeping the schedule deterministic.
type Churn struct {
	Start, Stop sim.Duration
	// Every is the mean virtual interval between cuts.
	Every sim.Duration
}

func (c Churn) schedule(f *Fleet) {
	if c.Every <= 0 {
		return
	}
	var cut func()
	cut = func() {
		v := f.vehicles[f.rng.Intn(len(f.vehicles))]
		f.tracef("churn cut %s", v.ID)
		f.m.faults++
		v.dropLink()
		next := f.eng.Now().Add(c.Every/2 + sim.Duration(f.rng.Int63n(int64(c.Every))))
		if next <= sim.Time(c.Stop) {
			f.eng.Schedule(next, cut)
		}
	}
	f.eng.Schedule(sim.Time(c.Start), cut)
}

// Partition isolates a random Fraction of the fleet at At: their links
// drop and every redial fails until Heal, when the whole herd races
// back in (spread by backoff jitter).
type Partition struct {
	At, Heal sim.Duration
	Fraction float64
}

func (p Partition) schedule(f *Fleet) {
	f.eng.Schedule(sim.Time(p.At), func() {
		members := f.sample(p.Fraction)
		f.tracef("partition %d vehicles until t=%s", len(members), sdur(p.Heal))
		for _, v := range members {
			f.m.faults++
			v.partitioned = true
			v.dropLink()
		}
		f.eng.Schedule(sim.Time(p.Heal), func() {
			f.tracef("partition heals")
			for _, v := range members {
				v.partitioned = false
			}
		})
	})
}

// BusFault corrupts the CAN frames of a random Fraction of vehicles
// between At and Heal: every push they receive is nacked with a
// corrupt-frame reason. With BusOff the affected controllers also go
// bus-off midway through the window, dropping their server links.
type BusFault struct {
	At, Heal sim.Duration
	Fraction float64
	// CorruptProb is the per-frame nack probability while the fault is
	// active; 0 selects 1.0 (every frame corrupted).
	CorruptProb float64
	BusOff      bool
}

func (b BusFault) schedule(f *Fleet) {
	prob := b.CorruptProb
	if prob <= 0 {
		prob = 1
	}
	f.eng.Schedule(sim.Time(b.At), func() {
		members := f.sample(b.Fraction)
		f.tracef("bus fault on %d vehicles until t=%s", len(members), sdur(b.Heal))
		for _, v := range members {
			f.m.faults++
			v.corruptProb = prob
		}
		if b.BusOff {
			f.eng.Schedule(sim.Time((b.At+b.Heal)/2), func() {
				f.tracef("bus-off: %d faulty controllers drop their links", len(members))
				for _, v := range members {
					v.dropLink()
				}
			})
		}
		f.eng.Schedule(sim.Time(b.Heal), func() {
			f.tracef("bus fault heals")
			for _, v := range members {
				v.corruptProb = 0
			}
		})
	})
}

// SlowAcks turns a random Fraction of the fleet into stragglers whose
// acks take Min..Max of virtual time instead of the scenario default.
type SlowAcks struct {
	Fraction float64
	Min, Max sim.Duration
}

func (s SlowAcks) schedule(f *Fleet) {
	f.eng.Schedule(0, func() {
		members := f.sample(s.Fraction)
		f.tracef("%d straggler vehicles ack in %s..%s", len(members), sdur(s.Min), sdur(s.Max))
		for _, v := range members {
			v.ackMin, v.ackMax = s.Min, s.Max
		}
	})
}

// VehicleCrash reboots a random Fraction of the fleet at At: in-flight
// (unacknowledged) work is lost, flashed installations survive, and the
// vehicles redial from a fresh backoff.
type VehicleCrash struct {
	At       sim.Duration
	Fraction float64
}

func (c VehicleCrash) schedule(f *Fleet) {
	f.eng.Schedule(sim.Time(c.At), func() {
		members := f.sample(c.Fraction)
		f.tracef("%d vehicles crash-reboot", len(members))
		for _, v := range members {
			f.m.faults++
			v.crash()
		}
	})
}

// ProbeFailure makes a random Fraction of the fleet fail its
// post-upgrade health probes between At and Heal: every MsgUpgrade
// pushed to an affected vehicle is nacked with a rollback-requesting
// probe-failure reason, which a rollout's health gate counts against
// its probe bound. Heal at or before At leaves the fault active for
// the rest of the run.
type ProbeFailure struct {
	At, Heal sim.Duration
	Fraction float64
}

func (p ProbeFailure) schedule(f *Fleet) {
	f.eng.Schedule(sim.Time(p.At), func() {
		members := f.sample(p.Fraction)
		f.tracef("probe failures on %d vehicles", len(members))
		for _, v := range members {
			f.m.faults++
			v.probeFail = true
		}
		if p.Heal > p.At {
			f.eng.Schedule(sim.Time(p.Heal), func() {
				f.tracef("probe failures heal")
				for _, v := range members {
					v.probeFail = false
				}
			})
		}
	})
}

// JournalFault injects a disk fault into the server's journal between
// At and Heal. DiskFull fails the next group commit with ENOSPC —
// sticky by the durability policy: the server refuses further durable
// mutations and reports degraded health until a crash-restart recovers
// the acknowledged prefix (pair it with a ServerCrash). SyncDelay adds
// latency to every fsync instead, so more appenders pile into each
// group commit, without losing anything; it heals cleanly at Heal.
// Forces a journaled server.
type JournalFault struct {
	At, Heal sim.Duration
	DiskFull bool
	// SyncDelay is the added real latency per fsync while active.
	SyncDelay time.Duration
}

func (jf JournalFault) schedule(f *Fleet) {
	f.eng.Schedule(sim.Time(jf.At), func() {
		if f.srv == nil || f.srv.Journal() == nil {
			return
		}
		f.tracef("journal fault (diskFull=%v, syncDelay=%s)", jf.DiskFull, jf.SyncDelay)
		f.m.faults++
		inj := &journal.FaultInjection{}
		if jf.DiskFull {
			inj.WriteErr = func(int) error { return errors.New("write: no space left on device") }
			// Settle-side records (upgrade commits, acks) are enqueued
			// without waiting by policy, so work this incarnation reports
			// as succeeded may never reach disk: mark the generation so
			// the audit exempts its settled ops after a crash reverts them.
			f.degradedGens[f.serverGen] = true
		}
		if jf.SyncDelay > 0 {
			d := jf.SyncDelay
			inj.SyncDelay = func() time.Duration { return d }
		}
		f.srv.Journal().SetFault(inj)
		if jf.Heal > jf.At {
			f.eng.Schedule(sim.Time(jf.Heal), func() {
				if f.srv == nil || f.srv.Journal() == nil {
					return
				}
				f.tracef("journal fault heals")
				f.srv.Journal().SetFault(nil)
			})
		}
	})
}

// ServerCrash kills the server at At — the journal drops everything
// after its last group commit, exactly like a power cut — and restarts
// it from the same journal directory after RestartAfter of virtual
// downtime. Vehicles redial the recovered server on their own backoff.
type ServerCrash struct {
	At sim.Duration
	// RestartAfter is the virtual downtime before recovery (default 2s).
	RestartAfter sim.Duration
}

func (c ServerCrash) schedule(f *Fleet) {
	restart := c.RestartAfter
	if restart <= 0 {
		restart = 2 * sim.Second
	}
	f.eng.Schedule(sim.Time(c.At), func() {
		f.crashServer()
		f.eng.After(restart, f.restartServer)
	})
}

// ShardCrash kills one shard's leader at At — the journal freezes at
// its last group commit, exactly like ServerCrash — and promotes the
// shard's synchronously-replicated follower after PromoteAfter of
// virtual downtime. The shard's vehicles land on the promoted leader on
// their own backoff redials; acknowledged state survives byte for byte
// because commits ship to the replica before their durability tickets
// settle. Requires Shards > 1; the shard choice is a fixed index, so
// the fault schedule stays a pure function of the seed.
type ShardCrash struct {
	At sim.Duration
	// Shard indexes the shard to kill (0-based).
	Shard int
	// PromoteAfter is the virtual downtime before the follower is
	// promoted (default 2s).
	PromoteAfter sim.Duration
}

func (c ShardCrash) schedule(f *Fleet) {
	promote := c.PromoteAfter
	if promote <= 0 {
		promote = 2 * sim.Second
	}
	f.eng.Schedule(sim.Time(c.At), func() {
		f.crashShard(c.Shard)
		f.eng.After(promote, func() { f.promoteShard(c.Shard) })
	})
}

func (sc Scenario) withDefaults() (Scenario, error) {
	if sc.Name == "" {
		sc.Name = "custom"
	}
	if sc.Vehicles <= 0 {
		sc.Vehicles = 100
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Duration <= 0 {
		sc.Duration = 30 * sim.Second
	}
	if sc.Speedup == 0 {
		sc.Speedup = 4
	}
	if sc.ConnectWindow <= 0 {
		sc.ConnectWindow = min(sc.Duration/20, 500*sim.Millisecond)
	}
	if sc.AckMin <= 0 {
		sc.AckMin = 500 * sim.Microsecond
	}
	if sc.AckMax < sc.AckMin {
		sc.AckMax = 8 * sim.Millisecond
	}
	if sc.RealTimeLimit <= 0 {
		sc.RealTimeLimit = 10 * time.Minute
	}
	if sc.Shards > 1 {
		sc.Journal = true // replication rides the journal's commit path
	}
	for _, fa := range sc.Faults {
		if _, ok := fa.(ServerCrash); ok {
			sc.Journal = true
			if sc.Shards > 1 {
				return sc, fmt.Errorf("fleetsim: ServerCrash targets the single-server topology; use ShardCrash with Shards > 1")
			}
		}
		if _, ok := fa.(JournalFault); ok {
			sc.Journal = true
			if sc.Shards > 1 {
				return sc, fmt.Errorf("fleetsim: JournalFault targets the single-server topology")
			}
		}
		if c, ok := fa.(ShardCrash); ok {
			if sc.Shards <= 1 {
				return sc, fmt.Errorf("fleetsim: ShardCrash needs Shards > 1")
			}
			if c.Shard < 0 || c.Shard >= sc.Shards {
				return sc, fmt.Errorf("fleetsim: ShardCrash shard %d out of range (%d shards)", c.Shard, sc.Shards)
			}
		}
		if p, ok := fa.(Partition); ok && p.Heal > sc.Duration {
			return sc, fmt.Errorf("fleetsim: partition heals at %s, after the scenario window %s — the cut half would redial forever", sdur(p.Heal), sdur(sc.Duration))
		}
	}
	if len(sc.Workload) > 0 && len(sc.Apps) == 0 {
		return sc, fmt.Errorf("fleetsim: scenario %q has workload but no apps", sc.Name)
	}
	for _, w := range sc.Workload {
		if w.At > sc.Duration {
			return sc, fmt.Errorf("fleetsim: work item at t=%s is outside the scenario window %s", sdur(w.At), sdur(sc.Duration))
		}
		if (w.Kind == WorkBatchUpgrade || w.Kind == WorkRollout) && w.ToApp == "" {
			return sc, fmt.Errorf("fleetsim: %s work item needs ToApp", w.Kind)
		}
	}
	return sc, nil
}

// upgradePairs lists the (from, to) app families the workload upgrades;
// the invariant checker audits exactly-one-version per vehicle on them.
func (sc Scenario) upgradePairs() [][2]core.AppName {
	var pairs [][2]core.AppName
	for _, w := range sc.Workload {
		if w.Kind == WorkBatchUpgrade || w.Kind == WorkRollout {
			pairs = append(pairs, [2]core.AppName{w.App, w.ToApp})
		}
	}
	return pairs
}

// Presets names the built-in scenarios, in rough order of violence.
func Presets() []string { return []string{"soak", "churn", "rollout", "storm"} }

// Preset builds a named built-in scenario. vehicles, seed and duration
// override the preset defaults when non-zero.
func Preset(name string, vehicles int, seed int64, duration sim.Duration) (Scenario, error) {
	apps, err := FleetApps()
	if err != nil {
		return Scenario{}, err
	}
	switch name {
	case "soak":
		// Steady-state health on the federated topology: three shards
		// replicating synchronously (the bench baseline carries the
		// replication overhead), light churn and a few stragglers under a
		// deploy → upgrade → widget → uninstall lifecycle.
		sc := Scenario{Name: name, Vehicles: 500, Seed: seed, Duration: 30 * sim.Second, Apps: apps, Shards: 3}
		applyOverrides(&sc, vehicles, duration)
		d := sc.Duration
		sc.Workload = []WorkItem{
			{At: d / 20, Kind: WorkBatchDeploy, App: AppV1},
			{At: d * 2 / 5, Kind: WorkBatchUpgrade, App: AppV1, ToApp: AppV2},
			{At: d * 13 / 20, Kind: WorkDeploy, App: AppWidget, Fraction: 0.05, Group: "widget"},
			// A progressive canary rollout back to V1; the loose gate
			// tolerates churn casualties so the waves usually promote.
			{At: d * 7 / 10, Kind: WorkRollout, App: AppV2, ToApp: AppV1,
				Health: &api.RolloutHealthPolicy{MaxFailureRate: 0.2, MaxProbeFailures: 2}},
			{At: d * 17 / 20, Kind: WorkBatchUninstall, App: AppWidget, Group: "widget"},
		}
		sc.Faults = []Fault{
			SlowAcks{Fraction: 0.01, Min: 50 * sim.Millisecond, Max: 400 * sim.Millisecond},
			Churn{Start: d / 10, Stop: d * 9 / 10, Every: d / 100},
		}
		return sc, nil
	case "churn":
		// Connectivity stress: aggressive link churn plus a partition
		// landing on a fleet-wide deploy.
		sc := Scenario{Name: name, Vehicles: 1000, Seed: seed, Duration: 20 * sim.Second, Apps: apps}
		applyOverrides(&sc, vehicles, duration)
		d := sc.Duration
		sc.Workload = []WorkItem{
			{At: d / 10, Kind: WorkBatchDeploy, App: AppV1},
		}
		sc.Faults = []Fault{
			Churn{Start: d / 20, Stop: d * 19 / 20, Every: d / 500},
			Partition{At: d / 8, Heal: d / 2, Fraction: 0.1},
		}
		return sc, nil
	case "rollout":
		// Progressive-delivery chaos: a healthy rollout promotes wave by
		// wave under link churn, then a probe-failure window poisons a
		// second rollout, whose gate must stop it at the canary wave and
		// roll the fleet back to the known-good version.
		sc := Scenario{Name: name, Vehicles: 600, Seed: seed, Duration: 24 * sim.Second, Apps: apps}
		applyOverrides(&sc, vehicles, duration)
		d := sc.Duration
		sc.Workload = []WorkItem{
			{At: d / 12, Kind: WorkBatchDeploy, App: AppV1},
			{At: d * 3 / 10, Kind: WorkRollout, App: AppV1, ToApp: AppV2,
				Health: &api.RolloutHealthPolicy{MaxFailureRate: 0.25, MaxProbeFailures: 2}},
			// The strict zero policy: a single probe nack trips wave 1.
			{At: d * 7 / 10, Kind: WorkRollout, App: AppV2, ToApp: AppV1},
		}
		sc.Faults = []Fault{
			SlowAcks{Fraction: 0.01, Min: 20 * sim.Millisecond, Max: 200 * sim.Millisecond},
			Churn{Start: d / 10, Stop: d / 2, Every: d / 60},
			ProbeFailure{At: d * 13 / 20, Fraction: 1},
		}
		return sc, nil
	case "storm":
		// Everything at once on the federated topology: churn, corrupt
		// buses going bus-off, a partition landing mid-upgrade, vehicle
		// reboots and a shard leader killed mid-batch with its follower
		// promoted, stragglers dragging every batch out.
		sc := Scenario{Name: name, Vehicles: 10000, Seed: seed, Duration: 45 * sim.Second, Apps: apps, Shards: 3}
		applyOverrides(&sc, vehicles, duration)
		d := sc.Duration
		sc.Workload = []WorkItem{
			{At: d / 20, Kind: WorkBatchDeploy, App: AppV1},
			{At: d / 4, Kind: WorkDeploy, App: AppWidget, Fraction: 0.02, Group: "widget"},
			{At: d * 2 / 5, Kind: WorkBatchUpgrade, App: AppV1, ToApp: AppV2},
			{At: d * 4 / 5, Kind: WorkBatchUninstall, App: AppWidget, Group: "widget"},
		}
		sc.Faults = []Fault{
			SlowAcks{Fraction: 0.02, Min: 100 * sim.Millisecond, Max: 1200 * sim.Millisecond},
			Churn{Start: d / 25, Stop: d * 23 / 25, Every: d / 400},
			BusFault{At: d * 3 / 10, Heal: d / 2, Fraction: 0.05, BusOff: true},
			Partition{At: d * 11 / 25, Heal: d * 3 / 5, Fraction: 0.2},
			VehicleCrash{At: d * 27 / 50, Fraction: 0.1},
			ShardCrash{At: d * 7 / 10, Shard: 1, PromoteAfter: 2 * sim.Second},
		}
		return sc, nil
	}
	return Scenario{}, fmt.Errorf("fleetsim: unknown scenario %q (have %v)", name, Presets())
}

func applyOverrides(sc *Scenario, vehicles int, duration sim.Duration) {
	if vehicles > 0 {
		sc.Vehicles = vehicles
	}
	if duration > 0 {
		sc.Duration = duration
	}
}
