package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dynautosar/internal/api"
	"dynautosar/internal/fleetsim"
)

// Request kinds of the fleet-ops mix.
const (
	reqDeploy = iota
	reqUninstall
	reqGetVehicle
	reqStatus
	reqGetOperation
)

const (
	// opsRate is the open loop's fixed arrival rate (requests per
	// second, writes and reads together): about 53 requests per second
	// per shard, a quarter of the per-client limiter.
	opsRate = 160.0
	// writeShare is the fraction of arrivals that are writes.
	writeShare = 0.5
	// vehicleCooldown keeps two writes off one vehicle within this much
	// schedule time, so no write races another on the same vehicle.
	vehicleCooldown = 2 * time.Second
	// recentWrites bounds how far back a GetOperation read reaches.
	recentWrites = 32
)

// opReq is one generated fleet-ops arrival.
type opReq struct {
	due     time.Duration // offset from the unit's start
	kind    int
	vehicle int
	write   int // for writes: their index; for GetOperation: the write read
}

// genOps generates n arrivals of the fleet-ops mix from rng: Poisson
// arrivals at opsRate, the write/read mix, vehicles and the earlier
// write each GetOperation reads. widget tracks Widget-1 per vehicle and
// is updated as writes are generated.
func genOps(rng *rand.Rand, n, vehicles int, widget []bool) []opReq {
	out := make([]opReq, 0, n)
	lastUse := make([]time.Duration, vehicles)
	for i := range lastUse {
		lastUse[i] = -vehicleCooldown
	}
	var t time.Duration
	writes := 0
	for len(out) < n {
		t += time.Duration(rng.ExpFloat64() / opsRate * float64(time.Second))
		r := opReq{due: t, vehicle: rng.Intn(vehicles)}
		write := rng.Float64() < writeShare
		if write {
			// A vehicle written within the cooldown is redrawn; when
			// every draw is busy (only in fleets far smaller than the
			// write rate times the cooldown) the arrival becomes a read.
			write = false
			for try := 0; try < 8 && !write; try++ {
				if t-lastUse[r.vehicle] >= vehicleCooldown {
					write = true
				} else {
					r.vehicle = rng.Intn(vehicles)
				}
			}
		}
		switch {
		case write:
			lastUse[r.vehicle] = t
			r.kind = reqDeploy
			if widget[r.vehicle] {
				r.kind = reqUninstall
			}
			widget[r.vehicle] = !widget[r.vehicle]
			r.write = writes
			writes++
		default:
			r.kind = reqGetVehicle + rng.Intn(3)
			if r.kind == reqGetOperation {
				if writes == 0 {
					r.kind = reqGetVehicle
				} else {
					r.write = writes - 1 - rng.Intn(min(writes, recentWrites))
				}
			}
		}
		out = append(out, r)
	}
	return out
}

// opsResult is what the fleet-ops units of a run measured.
type opsResult struct {
	settleMs  samples // write: due → terminal, in due order
	readMs    samples // read: due → answer, in due order
	lateMs    samples // worker start − due
	ackSettle samples // µs from the vehicle's ack write to observed settle
	attempted int
	failed    int
	wall      time.Duration
	delta     layerCounters // what this result's segments moved
	spans     []span
	problems  []string
	mu        sync.Mutex
}

func (r *opsResult) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// runOps plays a generated schedule as an open loop, added to res: a
// dispatcher hands each arrival, at its due time, to one of nproc
// workers; every request is timed from when it was due. Writes settle
// asynchronously and are observed in-process; runOps returns once all
// have settled.
func (f *fleet) runOps(res *opsResult, reqs []opReq) {
	before := f.counters()
	res.attempted += len(reqs)
	nWrites := 0
	for _, r := range reqs {
		if r.kind == reqDeploy || r.kind == reqUninstall {
			nWrites++
		}
	}
	opIDs := make([]string, nWrites)
	// lat holds each request's latency by its index, NaN until it
	// succeeds; each goroutine writes only its own requests' slots.
	lat := make([]float64, len(reqs))
	for i := range lat {
		lat[i] = math.NaN()
	}
	var idMu sync.Mutex
	var settle sync.WaitGroup
	jobs := make(chan int)
	var workers sync.WaitGroup
	start := time.Now()
	for w := 0; w < f.cfg.nproc; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range jobs {
				f.doOp(reqs[i], start, res, &lat[i], opIDs, &idMu, &settle)
			}
		}()
	}
	for i, r := range reqs {
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	workers.Wait()
	settle.Wait()
	res.wall += time.Since(start)
	res.delta = res.delta.add(f.counters().sub(before))
	for i, r := range reqs {
		switch {
		case math.IsNaN(lat[i]):
		case r.kind == reqDeploy || r.kind == reqUninstall:
			res.settleMs.add(lat[i])
		default:
			res.readMs.add(lat[i])
		}
	}
}

func (f *fleet) doOp(r opReq, start time.Time, res *opsResult, lat *float64, opIDs []string, idMu *sync.Mutex, settle *sync.WaitGroup) {
	due := start.Add(r.due)
	res.lateMs.addDur(time.Since(due), time.Millisecond)
	v := f.vehicles[r.vehicle]
	tid := f.opSeq.Add(1)
	ctx := withTrace(context.Background(), tid, 0)
	switch r.kind {
	case reqDeploy, reqUninstall:
		v.trace.Store(tid)
		base := v.replies.Load()
		var op api.Operation
		var err error
		if r.kind == reqDeploy {
			op, err = f.client.Deploy(ctx, api.DeployRequest{User: fleetUser, Vehicle: v.id, App: fleetsim.AppWidget})
		} else {
			op, err = f.client.Uninstall(ctx, api.UninstallRequest{User: fleetUser, Vehicle: v.id, App: fleetsim.AppWidget})
		}
		if err != nil {
			res.fail("write %d on %s: %v", r.write, v.id, err)
			return
		}
		idMu.Lock()
		opIDs[r.write] = op.ID
		idMu.Unlock()
		sh, id, err := f.splitOpID(op.ID)
		if err != nil {
			res.fail("%v", err)
			return
		}
		settle.Add(1)
		f.obs.watch(&waiter{sh: sh, id: id, replies: &v.replies, want: base + 1,
			deadline: time.Now().Add(f.cfg.settleLimit),
			done: func(s settled) {
				defer settle.Done()
				op := s.op
				switch {
				case s.timedOut:
					res.fail("write %s on %s did not settle within %s", op.ID, v.id, f.cfg.settleLimit)
				case op.State != api.StateSucceeded || op.Acked != op.Total:
					res.fail("write %s on %s settled %s acked %d/%d %v", op.ID, v.id, op.State, op.Acked, op.Total, op.Failures)
				default:
					*lat = float64(s.at.Sub(due)) / float64(time.Millisecond)
					ackAt := f.tr.epoch.Add(time.Duration(v.lastAck.Load()))
					res.ackSettle.addDur(s.at.Sub(ackAt), time.Microsecond)
				}
			}})
	default:
		var err error
		switch r.kind {
		case reqGetVehicle:
			var vd api.VehicleDetail
			vd, err = f.client.GetVehicle(ctx, v.id)
			if err == nil && vd.ID != v.id {
				err = fmt.Errorf("answered for %s", vd.ID)
			}
		case reqStatus:
			_, err = f.client.Status(ctx, v.id, fleetsim.AppWidget)
		case reqGetOperation:
			idMu.Lock()
			id := opIDs[r.write]
			idMu.Unlock()
			if id == "" {
				_, err = f.client.GetVehicle(ctx, v.id) // the write has not answered yet
				break
			}
			var op api.Operation
			op, err = f.client.GetOperation(ctx, id)
			if err == nil && op.ID != id {
				err = fmt.Errorf("asked for %s, answered %s", id, op.ID)
			}
		}
		if err != nil {
			res.fail("read kind %d on %s: %v", r.kind, v.id, err)
			return
		}
		*lat = float64(time.Since(due)) / float64(time.Millisecond)
	}
}
