package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/core"
	"dynautosar/internal/fleetsim"
)

// batchStep is one fleet-wide operation of the reconfiguration path
// deploy → upgrade → uninstall.
type batchStep int

const (
	stepDeploy batchStep = iota
	stepUpgrade
	stepUninstall
)

func (s batchStep) String() string {
	return [...]string{"deploy", "upgrade", "uninstall"}[s]
}

// pushesPerVehicle is how many frames each FleetNav step pushes to a
// vehicle: one per plug-in.
const pushesPerVehicle = 2

// batchResult is what the fleet-batch units of a run measured.
type batchResult struct {
	settleMs   samples // batch submitted at the Router → every shard parent done
	pushMs     samples // batch submitted → package arrived, per targeted vehicle
	pushP99    samples // per batch: the p99 of its pushMs
	cycleRate  samples // per deploy→upgrade→uninstall cycle: vehicle ops succeeded per second
	batches    int
	failed     int
	vehicleOps int // children succeeded
	wall       time.Duration
	delta      layerCounters // what this result's cycles moved
	spans      []span
	problems   []string
}

// runBatch is the closed-loop operator: cycles full deploy → upgrade
// → uninstall cycles of FleetNav over the whole fleet, in a seeded
// vehicle order per batch, added to res.
func (f *fleet) runBatch(res *batchResult, cycles int, rng *rand.Rand) {
	before := f.counters()
	ctx := context.Background()
	start := time.Now()
	for cycle := 0; cycle < cycles; cycle++ {
		cycleStart, opsBefore := time.Now(), res.vehicleOps
		for _, step := range []batchStep{stepDeploy, stepUpgrade, stepUninstall} {
			order := make([]core.VehicleID, len(f.vehicles))
			for i, j := range rng.Perm(len(f.vehicles)) {
				order[i] = f.vehicles[j].id
			}
			f.oneBatch(ctx, res, step, order)
		}
		res.cycleRate.add(float64(res.vehicleOps-opsBefore) / time.Since(cycleStart).Seconds())
	}
	res.wall += time.Since(start)
	res.delta = res.delta.add(f.counters().sub(before))
}

func (f *fleet) oneBatch(ctx context.Context, res *batchResult, step batchStep, order []core.VehicleID) {
	res.batches++
	tid := f.opSeq.Add(1)
	perShard := make(map[*shardNode]int64)
	base := make(map[*shardNode]int64)
	for _, sh := range f.shards {
		base[sh] = sh.replies.Load()
	}
	pushesBefore := make([]int64, len(f.vehicles))
	for _, v := range f.vehicles {
		perShard[v.shard]++
		pushesBefore[v.idx] = v.pushes.Load()
		v.trace.Store(tid)
	}
	ctx = withTrace(ctx, tid, 0)
	submit := time.Now()
	submitNs := f.tr.now()
	var op api.Operation
	var err error
	switch step {
	case stepDeploy:
		op, err = f.client.BatchDeploy(ctx, api.BatchDeployRequest{User: fleetUser, Vehicles: order, App: fleetsim.AppV1})
	case stepUpgrade:
		op, err = f.client.BatchUpgrade(ctx, api.BatchUpgradeRequest{User: fleetUser, Vehicles: order, From: fleetsim.AppV1, To: fleetsim.AppV2})
	case stepUninstall:
		op, err = f.client.BatchUninstall(ctx, api.BatchUninstallRequest{User: fleetUser, Vehicles: order, App: fleetsim.AppV2})
	}
	if err != nil {
		res.failed++
		res.problems = append(res.problems, fmt.Sprintf("batch %s: %v", step, err))
		return
	}
	parents := op.Children
	if len(parents) == 0 {
		parents = []string{op.ID} // single-shard fast path: the shard parent itself
	}
	results := make(chan settled, len(parents))
	for _, q := range parents {
		sh, id, err := f.splitOpID(q)
		if err != nil {
			res.failed++
			res.problems = append(res.problems, err.Error())
			return
		}
		f.obs.watch(&waiter{sh: sh, id: id, replies: &sh.replies,
			want: base[sh] + pushesPerVehicle*perShard[sh], deadline: time.Now().Add(f.cfg.settleLimit),
			done: func(s settled) { results <- s }})
	}
	var last time.Time
	ok := true
	for range parents {
		s := <-results
		if s.at.After(last) {
			last = s.at
		}
		op := s.op
		switch {
		case s.timedOut:
			ok = false
			res.problems = append(res.problems, fmt.Sprintf("batch %s: %s did not settle within %s", step, op.ID, f.cfg.settleLimit))
		case op.State != api.StateSucceeded || op.Acked != op.Total || op.VehiclesFailed != 0 || op.VehiclesSucceeded != len(op.Vehicles):
			ok = false
			res.problems = append(res.problems, fmt.Sprintf("batch %s: %s settled %s acked %d/%d, vehicles %d ok %d failed %v",
				step, op.ID, op.State, op.Acked, op.Total, op.VehiclesSucceeded, op.VehiclesFailed, op.Failures))
		}
		res.vehicleOps += op.VehiclesSucceeded
	}
	if !ok {
		res.failed++
		return
	}
	res.settleMs.addDur(last.Sub(submit), time.Millisecond)
	push := make([]float64, 0, len(f.vehicles))
	defer func() {
		res.pushP99.add(percentile(push, 99))
		for _, x := range push {
			res.pushMs.add(x)
		}
	}()
	for _, v := range f.vehicles {
		if got := v.pushes.Load() - pushesBefore[v.idx]; got != pushesPerVehicle {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("batch %s: vehicle %s received %d pushes, want %d", step, v.id, got, pushesPerVehicle))
			return
		}
		push = append(push, float64(v.lastArrival.Load()-submitNs)/1e6)
	}
}
