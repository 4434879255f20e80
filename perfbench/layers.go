package main

import (
	"time"
)

// spanStats indexes one path's spans for the per-layer figures.
type spanStats struct {
	self map[uint64]time.Duration
	by   map[string][]span
}

func newSpanStats(spans []span) spanStats {
	st := spanStats{self: selfTimes(spans), by: make(map[string][]span)}
	for _, s := range spans {
		st.by[s.name] = append(st.by[s.name], s)
	}
	return st
}

// durs returns, in unit, the durations (or self times) of the spans
// named name, optionally only those of one kind.
func (st spanStats) durs(name, kind string, self bool, unit time.Duration) []float64 {
	var out []float64
	for _, s := range st.by[name] {
		if kind != "" && s.opKind != kind {
			continue
		}
		d := s.dur()
		if self {
			d = st.self[s.id]
		}
		out = append(out, float64(d)/float64(unit))
	}
	return out
}

// fleetLayers derives the control-path per-layer metrics of one fleet
// path. ops counts operator requests, vehicleOps vehicle-level
// operations.
func fleetLayers(m map[string]metric, c layerCounters, spans []span, ops, vehicleOps float64) spanStats {
	st := newSpanStats(spans)
	router := float64(len(st.by[spanRouter]))
	shipDurs := st.durs(spanShip, "", false, time.Microsecond)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("api.rtt_us_p50", percentile(st.durs(spanAPI, "", false, time.Microsecond), 50), "us")
	set("api.rtt_us_p99", percentile(st.durs(spanAPI, "", false, time.Microsecond), 99), "us")
	set("api.self_us_p50", percentile(st.durs(spanAPI, "", true, time.Microsecond), 50), "us")
	set("api.bytes_per_op", ratio(float64(c.apiBytes), ops), "B")
	set("api.throttled", float64(c.throttled), "count")
	set("federation.self_us_p50", percentile(st.durs(spanRouter, "", true, time.Microsecond), 50), "us")
	set("federation.shard_calls_per_op", ratio(float64(len(st.by[spanAPI])), router), "count")
	set("federation.retries", float64(c.retries), "count")
	set("server.admit_ms_p50", percentile(st.durs(spanHandler, "create", false, time.Millisecond), 50), "ms")
	set("journal.records_per_op", ratio(float64(c.records), vehicleOps), "count")
	set("journal.commits_per_op", ratio(float64(c.commits), vehicleOps), "count")
	set("journal.records_per_commit", ratio(float64(c.records), float64(c.commits)), "count")
	set("journal.ship_us_p50", percentile(shipDurs, 50), "us")
	set("journal.ship_us_p99", percentile(shipDurs, 99), "us")
	set("journal.ship_bytes_per_op", ratio(float64(c.shipBytes), vehicleOps), "B")
	set("journal.ships_per_commit", ratio(float64(c.shipSegs), float64(c.commits)), "count")
	set("journal.snapshots", float64(c.gen), "count")
	return st
}

// layerMetrics computes every per-layer metric of a traced run from
// its traced units. Each path fills the metrics of the layers it
// drives; the workload's own path is applied last, so its figures win
// where paths overlap.
func layerMetrics(cfg *config, ph *phases, tr *tracer) map[string]metric {
	m := make(map[string]metric)
	batch := func() {
		b := ph.batch
		c := b.delta
		fleetLayers(m, c, b.spans, float64(b.batches), float64(b.vehicleOps))
		m["server.pushes_per_vehicle_op"] = metric{ratio(float64(c.pushesSent), float64(b.vehicleOps)), "count"}
		m["pusher.frames_per_vehicle_op"] = metric{ratio(float64(c.vehPushes), float64(b.vehicleOps)), "count"}
		m["pusher.bytes_per_vehicle_op"] = metric{ratio(float64(c.vehBytes), float64(b.vehicleOps)), "B"}
	}
	ops := func() {
		o := ph.ops
		c := o.delta
		writes := float64(o.settleMs.n())
		st := fleetLayers(m, c, o.spans, float64(o.attempted), writes)
		m["server.ack_to_settle_us_p50"] = metric{o.ackSettle.pct(50), "us"}
		m["loadgen.late_ms_p99"] = metric{o.lateMs.pct(99), "ms"}
		// The blocking steps of one write, by their median self times:
		// operator→Router, Router→shard, shard admission, the vehicle's
		// push handling and ack→settle.
		blocking := percentile(st.durs(spanRouter, "create", true, time.Millisecond), 50) +
			percentile(st.durs(spanAPI, "create", true, time.Millisecond), 50) +
			percentile(st.durs(spanHandler, "create", false, time.Millisecond), 50) +
			percentile(st.durs(spanPush, "", false, time.Millisecond), 50) +
			o.ackSettle.pct(50)/1000
		m["trace.blocking_self_ms_p50"] = metric{blocking, "ms"}
	}
	car := func() {
		v := ph.car
		cmds, inst := float64(v.cmds), float64(v.installs)
		m["ecm.server_msg_us_p50"] = metric{v.ecmServerUs.pct(50), "us"}
		m["ecm.endpoint_frame_us_p50"] = metric{v.ecmEndpointUs.pct(50), "us"}
		m["sim.step_us_per_cmd"] = metric{ratio(float64(v.cmdStepWall)/1e3, cmds), "us"}
		m["sim.step_ms_per_install"] = metric{ratio(float64(v.instStepWall)/1e6, inst), "ms"}
		m["can.frames_per_cmd"] = metric{ratio(float64(v.cmdFrames), cmds), "count"}
		m["can.frames_per_install"] = metric{ratio(float64(v.instFrames), inst), "count"}
		m["can.busy_sim_us_per_cmd"] = metric{ratio(float64(v.cmdBusy), cmds), "us"}
		m["can.max_pending_frames"] = metric{float64(v.maxPending), "count"}
		m["can.wall_ns_per_frame"] = metric{ratio(float64(v.instStepWall), float64(v.instFrames)), "ns"}
		m["com.isotp_frames_per_install"] = metric{ratio(float64(v.isotpFrames), inst), "count"}
		m["pirte.activations_per_cmd"] = metric{ratio(float64(v.activations), cmds), "count"}
		m["pirte.vport_drops"] = metric{float64(v.vportDrops), "count"}
		m["vm.instr_per_cmd"] = metric{ratio(float64(v.instructions), cmds), "count"}
	}
	order := []func(){batch, ops, car}
	switch cfg.workload {
	case wlBatch:
		order = []func(){ops, car, batch}
	case wlOps:
		order = []func(){batch, car, ops}
	}
	for _, fn := range order {
		fn()
	}
	overhead := median(ph.headline(cfg.workload)) - median(ph.untraced.headline(cfg.workload))
	m["trace.overhead_ms_p50"] = metric{overhead, "ms"}
	m["trace.dropped_spans"] = metric{float64(tr.dropped), "count"}
	return m
}
