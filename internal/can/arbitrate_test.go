package can

import (
	"fmt"
	"math/rand"
	"testing"

	"dynautosar/internal/sim"
)

// refBus is the reference model for the ordered transmit queues: the bus
// as it arbitrated with plain slices. Every arbitration scans every
// queued frame of every non-bus-off node for the lowest (id, seq), taking
// the first one found on an exact tie, and a corrupted frame's seq-0
// retransmit is inserted at the front of its node's slice. Everything
// else (timing, fault confinement, delivery) mirrors Bus.
type refBus struct {
	eng     *sim.Engine
	timing  *Bus // FrameTime only
	nodes   []*refNode
	busy    bool
	seq     uint64
	stats   Stats
	fault   func(Frame) FaultAction
	scratch [MaxData]byte
}

type refNode struct {
	bus      *refBus
	queue    []pending
	rx       []rxHandler
	tec      int
	state    ErrorState
	sent     uint64
	received uint64
}

func newRefBus(eng *sim.Engine, bitrate int) *refBus {
	return &refBus{eng: eng, timing: NewBus(eng, "timing", bitrate)}
}

func (b *refBus) attach() *refNode {
	n := &refNode{bus: b}
	b.nodes = append(b.nodes, n)
	return n
}

func (n *refNode) Send(f Frame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if n.state == BusOff {
		return ErrBusOff
	}
	n.bus.seq++
	p := pending{id: f.ID, seq: n.bus.seq, dlc: uint8(len(f.Data)), ext: f.Extended, rtr: f.RTR}
	copy(p.data[:], f.Data)
	n.queue = append(n.queue, p)
	n.bus.kick()
	return nil
}

func (n *refNode) OnReceive(filter Filter, fn func(Frame, sim.Time)) {
	n.rx = append(n.rx, rxHandler{filter: filter, fn: fn})
}

func (n *refNode) QueueLen() int     { return len(n.queue) }
func (n *refNode) State() ErrorState { return n.state }
func (n *refNode) counts() [2]uint64 { return [2]uint64{n.sent, n.received} }
func (n *Node) counts() [2]uint64    { return [2]uint64{n.Sent, n.Received} }

func (b *refBus) PendingFrames() int {
	total := 0
	for _, n := range b.nodes {
		total += len(n.queue)
	}
	return total
}

func (b *refBus) kick() {
	if b.busy {
		return
	}
	p, n, ok := b.arbitrate()
	if !ok {
		return
	}
	b.busy = true
	start := b.eng.Now()
	var buf [MaxData]byte
	b.eng.After(b.timing.FrameTime(p.frameOver(buf[:])), func() {
		b.busy = false
		b.stats.BusyTime += sim.Duration(b.eng.Now() - start)
		b.finish(n, &p)
		b.kick()
	})
}

func (b *refBus) arbitrate() (pending, *refNode, bool) {
	var best *pending
	var bestNode *refNode
	var bestIdx int
	for _, n := range b.nodes {
		if n.state == BusOff {
			continue
		}
		for i := range n.queue {
			p := &n.queue[i]
			if best == nil || p.id < best.id ||
				(p.id == best.id && p.seq < best.seq) {
				best = p
				bestNode = n
				bestIdx = i
			}
		}
	}
	if best == nil {
		return pending{}, nil, false
	}
	p := *best
	bestNode.queue = append(bestNode.queue[:bestIdx], bestNode.queue[bestIdx+1:]...)
	return p, bestNode, true
}

func (b *refBus) finish(node *refNode, p *pending) {
	f := p.frameOver(b.scratch[:])
	action := Deliver
	if b.fault != nil {
		action = b.fault(f)
	}
	switch action {
	case Corrupt:
		b.stats.FramesCorrupted++
		node.tec += 8
		node.updateState()
		if node.state != BusOff {
			requeued := *p
			requeued.seq = 0
			node.queue = append([]pending{requeued}, node.queue...)
		}
		return
	case Lose:
		b.stats.FramesLost++
		return
	}
	if node.tec > 0 {
		node.tec--
		node.updateState()
	}
	node.sent++
	b.stats.FramesDelivered++
	b.stats.BitsTransferred += uint64(f.Bits())
	now := b.eng.Now()
	for _, rx := range b.nodes {
		if rx == node {
			continue
		}
		for _, h := range rx.rx {
			if h.filter.Match(f.ID) {
				rx.received++
				h.fn(f, now)
			}
		}
	}
}

func (n *refNode) updateState() {
	switch {
	case n.tec > 255:
		n.state = BusOff
	case n.tec > 127:
		n.state = ErrorPassive
	default:
		n.state = ErrorActive
	}
}

// diffNode is the surface the differential scenario drives on both buses.
type diffNode interface {
	Send(Frame) error
	OnReceive(Filter, func(Frame, sim.Time))
	QueueLen() int
	State() ErrorState
	counts() [2]uint64
}

// scriptedSend is one Send the scenario issues at a fixed simulated time.
type scriptedSend struct {
	at    sim.Time
	node  int
	frame Frame
}

// diffScenario is one seeded arbitration workload, generated once and
// replayed on both buses.
type diffScenario struct {
	seed      int64
	nodes     int
	filters   [][]Filter
	faulty    int // node whose frames are mostly corrupted; -1 for none
	faultRate int // percent of the faulty node's frames corrupted
	sends     []scriptedSend
}

// collidingIDs share numeric values across the standard and extended
// formats, so arbitration meets equal ids from different nodes.
var collidingIDs = []uint32{0x100, 0x101, 0x102, 0x107, 0x1FF, 0x600}

func newDiffScenario(seed int64) diffScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := diffScenario{seed: seed, nodes: 2 + rng.Intn(4), faulty: -1}
	if rng.Intn(3) > 0 {
		sc.faulty = rng.Intn(sc.nodes)
		sc.faultRate = []int{15, 40, 80}[rng.Intn(3)]
	}
	filters := []Filter{MatchAll, {ID: 0x100, Mask: 0x7F8}, {ID: 0x600, Mask: ^uint32(0)}}
	for range sc.nodes {
		var fs []Filter
		for range 1 + rng.Intn(2) {
			fs = append(fs, filters[rng.Intn(len(filters))])
		}
		sc.filters = append(sc.filters, fs)
	}
	for burst := range 10 + rng.Intn(20) {
		// Coarse start times make bursts from different nodes coincide.
		at := sim.Time(rng.Intn(40)) * sim.Time(sim.Millisecond)
		node := rng.Intn(sc.nodes)
		fifo := rng.Intn(3) == 0 // a long same-id run, like an ISO-TP transfer
		n := 1 + rng.Intn(12)
		if fifo {
			n = 20 + rng.Intn(180)
		}
		id := collidingIDs[rng.Intn(len(collidingIDs))]
		ext := rng.Intn(4) == 0
		for i := range n {
			if !fifo {
				id = collidingIDs[rng.Intn(len(collidingIDs))]
				ext = rng.Intn(4) == 0
			}
			data := make([]byte, 3+rng.Intn(MaxData-2))
			data[0], data[1], data[2] = byte(node), byte(burst), byte(i)
			sc.sends = append(sc.sends, scriptedSend{at: at, node: node,
				frame: Frame{ID: id, Extended: ext, RTR: rng.Intn(16) == 0, Data: data}})
		}
	}
	return sc
}

// diffRun is everything one bus produced for a scenario.
type diffRun struct {
	log     []string
	replies int
	stats   Stats
	pending int
	nodes   []string
}

// play replays the scenario on nodes attached to one bus. Receive
// handlers answer some frames with a Send of their own, and the fault
// injector corrupts or loses frames; both draw from generators seeded by
// the scenario, so as long as the two buses agree on every event they
// also agree on every draw.
func (sc diffScenario) play(eng *sim.Engine, nodes []diffNode, setFault func(func(Frame) FaultAction), pendingFrames func() int) diffRun {
	var run diffRun
	reply := rand.New(rand.NewSource(sc.seed ^ 0x5eed))
	fault := rand.New(rand.NewSource(sc.seed ^ 0xfa17))
	for i, node := range nodes {
		for h, flt := range sc.filters[i] {
			node.OnReceive(flt, func(f Frame, at sim.Time) {
				run.log = append(run.log, fmt.Sprintf("%d rx=%d/%d from=%d id=%X ext=%v rtr=%v data=%X",
					at, i, h, f.Data[0], f.ID, f.Extended, f.RTR, f.Data))
				if run.replies < 300 && reply.Intn(6) == 0 {
					run.replies++
					id := collidingIDs[reply.Intn(len(collidingIDs))]
					err := node.Send(Frame{ID: id, Extended: reply.Intn(4) == 0,
						Data: []byte{byte(i), 0xEE, byte(run.replies)}})
					run.log = append(run.log, fmt.Sprintf("%d reply node=%d id=%X err=%v", at, i, id, err))
				}
			})
		}
	}
	setFault(func(f Frame) FaultAction {
		if int(f.Data[0]) == sc.faulty && fault.Intn(100) < sc.faultRate {
			return Corrupt
		}
		switch r := fault.Intn(100); {
		case r < 4:
			return Corrupt
		case r < 6:
			return Lose
		}
		return Deliver
	})
	for _, s := range sc.sends {
		eng.Schedule(s.at, func() {
			if err := nodes[s.node].Send(s.frame); err != nil {
				run.log = append(run.log, fmt.Sprintf("%d send node=%d err=%v", eng.Now(), s.node, err))
			}
		})
	}
	eng.Run()
	run.pending = pendingFrames()
	for _, n := range nodes {
		run.nodes = append(run.nodes, fmt.Sprintf("sent/received=%v state=%v queue=%d", n.counts(), n.State(), n.QueueLen()))
	}
	return run
}

// TestArbitrationMatchesLinearScan drives Bus and the linear-scan
// reference model through the same seeded scenarios and requires the
// same deliveries, replies, send errors, statistics and node states.
func TestArbitrationMatchesLinearScan(t *testing.T) {
	var corrupted, passive, busOff, replies int
	for seed := int64(1); seed <= 150; seed++ {
		sc := newDiffScenario(seed)

		refEng := sim.NewEngine()
		ref := newRefBus(refEng, 500_000)
		refNodes := make([]diffNode, sc.nodes)
		for i := range refNodes {
			refNodes[i] = ref.attach()
		}
		want := sc.play(refEng, refNodes, func(fn func(Frame) FaultAction) { ref.fault = fn }, ref.PendingFrames)
		want.stats = ref.stats

		eng := sim.NewEngine()
		bus := NewBus(eng, "CAN0", 500_000)
		nodes := make([]diffNode, sc.nodes)
		for i := range nodes {
			nodes[i] = bus.AttachNode(fmt.Sprint("N", i))
		}
		got := sc.play(eng, nodes, bus.SetFaultInjector, bus.PendingFrames)
		got.stats = bus.Stats()

		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: event %d diverges\n got %s\nwant %s", seed, i, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d events, reference has %d", seed, len(got.log), len(want.log))
		}
		if got.stats != want.stats || got.pending != want.pending {
			t.Fatalf("seed %d: stats %+v pending %d, reference %+v pending %d",
				seed, got.stats, got.pending, want.stats, want.pending)
		}
		for i := range got.nodes {
			if got.nodes[i] != want.nodes[i] {
				t.Fatalf("seed %d: node %d %s, reference %s", seed, i, got.nodes[i], want.nodes[i])
			}
		}

		corrupted += int(got.stats.FramesCorrupted)
		for _, n := range nodes {
			switch n.State() {
			case ErrorPassive:
				passive++
			case BusOff:
				busOff++
			}
		}
		replies += got.replies
	}
	// The scenarios must reach the paths the comparison is about.
	if corrupted == 0 || passive == 0 || busOff == 0 || replies == 0 {
		t.Fatalf("scenarios too tame: corrupted=%d passive=%d bus-off=%d replies=%d",
			corrupted, passive, busOff, replies)
	}
}
