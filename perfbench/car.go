package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dynautosar/internal/bsw"
	"dynautosar/internal/com"
	"dynautosar/internal/core"
	"dynautosar/internal/ecm"
	"dynautosar/internal/pirte"
	"dynautosar/internal/plugin"
	"dynautosar/internal/sim"
	"dynautosar/internal/vehicle"
	"dynautosar/internal/vm"
)

const (
	maxPackage  = 64 << 10 // the largest OTA package, always in the mix
	minPackage  = 256
	strata      = 9       // package sizes: one per doubling from 256 B to 32 KiB, then exactly 64 KiB
	burstMin    = 2000    // phone commands per round, drawn in [burstMin, burstMax]
	burstMax    = 3000    //
	meanGapUs   = 600     // mean simulated gap between two phone commands
	sameSigUs   = 2000    // least simulated gap between two commands of one signal
	stepLimit   = 1 << 22 // engine events one command or install may take before it counts as lost
	otaPlugin   = "padded"
	wheelsLimit = 300  // |Wheels| range of the steering servo
	speedLimit  = 2000 // SpeedAct range of the drive train
)

// signals are the phone's message ids, in the fixed order commands
// observed at the same engine event are recorded.
var signals = [...]string{"Wheels", "Speed"}

// sinkConn stands in for the trusted-server link and the phone: it
// keeps what the ECM writes and reads as closed.
type sinkConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *sinkConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}
func (c *sinkConn) Read([]byte) (int, error) { return 0, io.EOF }
func (c *sinkConn) Close() error             { return nil }

// drain decodes and removes every message written so far.
func (c *sinkConn) drain() ([]core.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.Message
	for c.buf.Len() > 0 {
		m, err := core.ReadMessage(&c.buf)
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
	return out, nil
}

// carRig is one model car with COM and OP installed through the ECM,
// driven by stepping its engine.
type carRig struct {
	eng    *sim.Engine
	car    *vehicle.ModelCar
	io2    *bsw.IoHwAb
	server *sinkConn
	seq    uint32
	// last commanded value per signal, the actuator's current state.
	wheels, speed int64
}

func newCarRig() (*carRig, error) {
	eng := sim.NewEngine()
	car, err := vehicle.NewModelCar(eng, "VIN-PB-CAR")
	if err != nil {
		return nil, err
	}
	e2, ok := car.ECU(vehicle.ECU2)
	if !ok {
		return nil, fmt.Errorf("model car has no %s", vehicle.ECU2)
	}
	r := &carRig{eng: eng, car: car, io2: e2.IoHwAb, server: &sinkConn{}}
	car.ECM.SetDialer(ecm.DialerFunc(func(string) (io.ReadWriteCloser, error) { return &sinkConn{}, nil }))
	if err := car.ECM.ConnectServer(r.server, car.ID); err != nil {
		return nil, err
	}
	if _, err := r.server.drain(); err != nil { // the hello
		return nil, err
	}
	opPkg, err := vehicle.OPPackage()
	if err != nil {
		return nil, err
	}
	comPkg, err := vehicle.COMPackage()
	if err != nil {
		return nil, err
	}
	for _, p := range []struct {
		pkg      plugin.Package
		ecu      core.ECUID
		swc      core.SWCID
		isListed func() bool
	}{
		{opPkg, vehicle.ECU2, vehicle.SWC2, func() bool { _, ok := car.SWC2PIRTE.Plugin("OP"); return ok }},
		{comPkg, vehicle.ECU1, vehicle.SWC1, func() bool { _, ok := car.ECM.Plugin("COM"); return ok }},
	} {
		r.seq++
		msg, err := vehicle.InstallMessage(p.pkg, p.ecu, p.swc, r.seq)
		if err != nil {
			return nil, err
		}
		car.ECM.HandleServerMessage(msg)
		if err := r.stepUntil(p.isListed); err != nil {
			return nil, fmt.Errorf("installing %s: %w", msg.Plugin, err)
		}
		if err := r.awaitAck(msg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// stepUntil steps the engine event by event until cond holds.
func (r *carRig) stepUntil(cond func() bool) error {
	for n := 0; !cond(); n++ {
		if n >= stepLimit || !r.eng.Step() {
			return fmt.Errorf("condition not reached after %d engine events", n)
		}
	}
	return nil
}

// awaitAck steps until the ECM has answered msg and checks the answer
// is an ack.
func (r *carRig) awaitAck(msg core.Message) error {
	var got []core.Message
	err := r.stepUntil(func() bool {
		ms, _ := r.server.drain()
		got = append(got, ms...)
		return len(got) > 0
	})
	if err != nil {
		return fmt.Errorf("%s of %s: no answer: %w", msg.Type, msg.Plugin, err)
	}
	if len(got) != 1 || got[0].Type != core.MsgAck || got[0].Seq != msg.Seq {
		return fmt.Errorf("%s of %s (seq %d): answered %v", msg.Type, msg.Plugin, msg.Seq, got)
	}
	return nil
}

func (r *carRig) actuator(sig string) int64 {
	if sig == "Wheels" {
		return r.car.Dynamics.WheelAngle()
	}
	v, _ := r.io2.Read(vehicle.ChanSpeedAct)
	return v
}

// vehRound is one generated round: a burst of phone commands, then one
// OTA install+uninstall of a package of the given size.
type vehRound struct {
	cmds []phoneCmd
	pkg  []byte
}

// phoneCmd is one phone command, sent at offset at (simulated µs from
// the start of its burst). Commands of different signals may overlap
// on the bus; two of one signal are at least sameSigUs apart, so each
// value is applied before the next replaces it.
type phoneCmd struct {
	sig   string
	value int64
	at    sim.Duration
}

// roundGen draws rounds from a seeded stream. Packages come in blocks
// of strata, every size of the ladder once, in a seeded order; an odd
// block puts the median install inside one size, not on the edge
// between two. Each command differs from the value its actuator
// already shows.
type roundGen struct {
	rng           *rand.Rand
	ladder        *otaLadder
	wheels, speed int64
	block         []int
}

func newRoundGen(seed int64, ladder *otaLadder) *roundGen {
	return &roundGen{rng: rand.New(rand.NewSource(seed)), ladder: ladder}
}

func (g *roundGen) next() vehRound {
	rng := g.rng
	if len(g.block) == 0 {
		g.block = rng.Perm(strata)
	}
	r := vehRound{pkg: g.ladder[g.block[0]], cmds: make([]phoneCmd, burstMin+rng.Intn(burstMax-burstMin+1))}
	g.block = g.block[1:]
	var at sim.Duration
	last := map[string]sim.Duration{"Wheels": -sameSigUs, "Speed": -sameSigUs}
	for i := range r.cmds {
		at += sim.Duration(rng.ExpFloat64() * meanGapUs)
		if rng.Intn(2) == 0 {
			v := int64(rng.Intn(2*wheelsLimit+1) - wheelsLimit)
			if v == g.wheels {
				v = nudge(v, wheelsLimit)
			}
			g.wheels = v
			r.cmds[i] = phoneCmd{"Wheels", v, 0}
		} else {
			v := int64(rng.Intn(speedLimit + 1))
			if v == g.speed {
				v = nudge(v, speedLimit)
			}
			g.speed = v
			r.cmds[i] = phoneCmd{"Speed", v, 0}
		}
		c := &r.cmds[i]
		at = max(at, last[c.sig]+sameSigUs)
		c.at, last[c.sig] = at, at
	}
	return r
}

// nudge moves v one step inside its range.
func nudge(v, hi int64) int64 {
	if v < hi {
		return v + 1
	}
	return v - 1
}

// otaLadder holds the encoded OTA packages, one per doubling from
// minPackage to maxPackage/2 plus one of exactly maxPackage. They are
// built once, before any timing, as inputs.
type otaLadder [strata][]byte

func newOTALadder() (*otaLadder, error) {
	var l otaLadder
	for k := range l {
		size := minPackage << k
		if k == strata-1 {
			size = maxPackage
		}
		raw, err := otaPackage(size)
		if err != nil {
			return nil, err
		}
		l[k] = raw
	}
	return &l, nil
}

// otaPackage builds an installation package of about size bytes
// (never more than size) padded with constant data.
func otaPackage(size int) ([]byte, error) {
	pad := size - 160
	for {
		raw, err := buildPadded(max(pad, 0))
		if err != nil {
			return nil, err
		}
		if len(raw) <= size || pad <= 0 {
			return raw, nil
		}
		pad -= len(raw) - size
	}
}

func buildPadded(pad int) ([]byte, error) {
	var sb strings.Builder
	sb.WriteString(".plugin " + otaPlugin + " 1.0\n.port in required\n.port out provided\n")
	for i := 0; pad > 0; i++ {
		n := min(pad, 250)
		fmt.Fprintf(&sb, ".const c%d %q\n", i, strings.Repeat("x", n))
		pad -= n
	}
	sb.WriteString("on_message in:\n\tARG\n\tPWR out\n\tRET\n")
	prog, err := vm.Assemble(sb.String())
	if err != nil {
		return nil, err
	}
	bin, err := plugin.FromProgram(prog, plugin.Manifest{Developer: "perfbench"})
	if err != nil {
		return nil, err
	}
	pkg := plugin.Package{Binary: bin, Context: core.Context{
		PIC: core.PIC{{Name: "in", ID: 30}, {Name: "out", ID: 31}},
		PLC: core.PLC{{Kind: core.LinkNone, Plugin: 30}, {Kind: core.LinkNone, Plugin: 31}},
	}}
	return pkg.MarshalBinary()
}

// vehResult is what the vehicle units of a run measured.
type vehResult struct {
	rounds         int
	cmds, installs int
	simUs          []float64 // per command, in order
	installMs      samples
	burstRate      samples // per burst: commands per wall second
	blockRate      samples // per block of strata installs: KiB per wall second
	blockBytes     int64
	blockWall      time.Duration
	blockN         int
	ecmServerUs    samples
	ecmEndpointUs  samples
	cmdWall        time.Duration // HandleEndpointFrame + stepping, all commands
	cmdStepWall    time.Duration
	installWall    time.Duration // ECM receipt → listed, all installs
	instStepWall   time.Duration
	installBytes   int64
	isotpFrames    int
	cmdFrames      uint64
	cmdBusy        sim.Duration
	instFrames     uint64
	maxPending     int
	activations    uint64
	instructions   uint64
	vportDrops     uint64
	spans          []span
	failed         int
	problems       []string
}

// vmCounters sums the activations and instructions of COM and OP.
func (r *carRig) vmCounters() (act, instr uint64) {
	com, _ := r.car.ECM.Plugin("COM")
	op, _ := r.car.SWC2PIRTE.Plugin("OP")
	for _, p := range []*pirte.Installed{com, op} {
		a, i, _ := p.Stats()
		act += a
		instr += i
	}
	return act, instr
}

func (r *carRig) vportDrops() uint64 {
	var total uint64
	for _, vp := range vehicle.ECMConfig().VirtualPorts {
		_, d, _ := r.car.ECM.VirtualPortStats(vp.ID)
		total += d
	}
	for _, vp := range vehicle.SWC2Config().VirtualPorts {
		_, d, _ := r.car.SWC2PIRTE.VirtualPortStats(vp.ID)
		total += d
	}
	return total
}

// runRounds plays n generated rounds, added to res, recording spans
// while tr is enabled. It stops early at the first failed round.
func (r *carRig) runRounds(res *vehResult, gen *roundGen, tr *tracer, n int) {
	dropsBefore := r.vportDrops()
	for k := 0; k < n; k++ {
		res.rounds++
		if err := r.round(gen.next(), res, tr); err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("round %d: %v", res.rounds, err))
			break
		}
	}
	res.vportDrops += r.vportDrops() - dropsBefore
}

// burst schedules the phone commands at their simulated send times
// and steps the engine event by event until each actuator has shown
// every value commanded on it, in order.
func (r *carRig) burst(cmds []phoneCmd, res *vehResult, tr *tracer) error {
	base := r.eng.Now()
	sent := make([]sim.Time, len(cmds))
	pending := map[string][]int{}
	var ecmWall time.Duration
	for i, c := range cmds {
		r.eng.Schedule(base.Add(c.at), func() {
			sent[i] = r.eng.Now()
			pending[c.sig] = append(pending[c.sig], i)
			t0 := time.Now()
			r.car.ECM.HandleEndpointFrame(vehicle.PhoneEndpoint, c.sig, c.value)
			d := time.Since(t0)
			ecmWall += d
			res.ecmEndpointUs.addDur(d, time.Microsecond)
			if tr.enabled() {
				tr.interval(spanECMEndpoint, tr.newID(), t0, t0.Add(d), 0)
			}
		})
	}
	t0 := time.Now()
	seen := 0
	for steps := 0; seen < len(cmds); steps++ {
		if steps >= stepLimit || !r.eng.Step() {
			return fmt.Errorf("%d of %d phone commands never reached their actuator", len(cmds)-seen, len(cmds))
		}
		for _, sig := range signals {
			if q := pending[sig]; len(q) > 0 && r.actuator(sig) == cmds[q[0]].value {
				res.simUs = append(res.simUs, float64(r.eng.Now()-sent[q[0]]))
				pending[sig] = q[1:]
				seen++
			}
		}
	}
	wall := time.Since(t0)
	res.burstRate.add(float64(len(cmds)) / wall.Seconds())
	res.cmds += len(cmds)
	res.cmdWall += wall
	res.cmdStepWall += wall - ecmWall
	if tr.enabled() {
		tr.interval(spanSimCmd, tr.newID(), t0, t0.Add(wall), 0)
	}
	return nil
}

func (r *carRig) round(rd vehRound, res *vehResult, tr *tracer) error {
	bus := r.car.Bus
	act0, instr0 := r.vmCounters()
	st0 := bus.Stats()
	if err := r.burst(rd.cmds, res, tr); err != nil {
		return err
	}
	st1 := bus.Stats()
	act1, instr1 := r.vmCounters()
	res.cmdFrames += st1.FramesDelivered - st0.FramesDelivered
	res.cmdBusy += st1.BusyTime - st0.BusyTime
	res.activations += act1 - act0
	res.instructions += instr1 - instr0

	raw := rd.pkg
	r.seq++
	msg := core.Message{Type: core.MsgInstall, Plugin: otaPlugin, ECU: vehicle.ECU2, SWC: vehicle.SWC2, Seq: r.seq, Payload: raw}
	framed, err := msg.MarshalBinary()
	if err != nil {
		return err
	}
	listed := func() bool { _, ok := r.car.SWC2PIRTE.Plugin(otaPlugin); return ok }
	tid := tr.newID()
	t0 := time.Now()
	r.car.ECM.HandleServerMessage(msg)
	t1 := time.Now()
	res.maxPending = max(res.maxPending, bus.PendingFrames())
	err = r.stepUntil(listed)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("install of %d B: PIRTE never listed it: %w", len(raw), err)
	}
	st2 := bus.Stats()
	res.installs++
	res.installBytes += int64(len(raw))
	res.isotpFrames += com.FrameCount(len(framed))
	res.instFrames += st2.FramesDelivered - st1.FramesDelivered
	res.installMs.addDur(t2.Sub(t0), time.Millisecond)
	res.ecmServerUs.addDur(t1.Sub(t0), time.Microsecond)
	res.installWall += t2.Sub(t0)
	res.blockBytes += int64(len(raw))
	res.blockWall += t2.Sub(t0)
	if res.blockN++; res.blockN == strata {
		res.blockRate.add(float64(res.blockBytes) / 1024 / res.blockWall.Seconds())
		res.blockBytes, res.blockWall, res.blockN = 0, 0, 0
	}
	res.instStepWall += t2.Sub(t1)
	if tr.enabled() {
		tr.interval(spanECMServer, tid, t0, t1, int64(len(raw)))
		tr.interval(spanSimInstall, tid, t1, t2, int64(len(raw)))
	}
	if err := r.awaitAck(msg); err != nil {
		return err
	}

	r.seq++
	un := core.Message{Type: core.MsgUninstall, Plugin: otaPlugin, ECU: vehicle.ECU2, SWC: vehicle.SWC2, Seq: r.seq}
	t0 = time.Now()
	r.car.ECM.HandleServerMessage(un)
	res.ecmServerUs.addDur(time.Since(t0), time.Microsecond)
	if err := r.stepUntil(func() bool { return !listed() }); err != nil {
		return fmt.Errorf("uninstall: PIRTE still lists the plug-in: %w", err)
	}
	return r.awaitAck(un)
}
