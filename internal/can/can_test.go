package can

import (
	"errors"
	"testing"
	"testing/quick"

	"dynautosar/internal/sim"
)

func newBus(bitrate int) (*sim.Engine, *Bus) {
	eng := sim.NewEngine()
	return eng, NewBus(eng, "CAN0", bitrate)
}

func TestFrameValidate(t *testing.T) {
	good := Frame{ID: 0x123, Data: []byte{1, 2, 3}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Frame{
		{ID: 0x800},                            // standard id out of range
		{ID: 1 << 29, Extended: true},          // extended id out of range
		{ID: 1, Data: make([]byte, MaxData+1)}, // oversized payload
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
}

func TestFrameBits(t *testing.T) {
	empty := Frame{ID: 1}
	if bits := empty.Bits(); bits != 47+34/5 {
		t.Fatalf("empty frame bits = %d", bits)
	}
	full := Frame{ID: 1, Data: make([]byte, 8)}
	if bits := full.Bits(); bits != 47+64+(34+64)/5 {
		t.Fatalf("full frame bits = %d", bits)
	}
	ext := Frame{ID: 1, Extended: true}
	if ext.Bits() != empty.Bits()+20 {
		t.Fatalf("extended overhead = %d", ext.Bits()-empty.Bits())
	}
	rtr := Frame{ID: 1, RTR: true, Data: []byte{1, 2}}
	if rtr.Bits() != empty.Bits() {
		t.Fatalf("RTR frame carries data bits")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var got []Frame
	var at sim.Time
	b.OnReceive(MatchAll, func(f Frame, ts sim.Time) { got = append(got, f); at = ts })
	if err := a.Send(Frame{ID: 0x100, Data: []byte{0xAB}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0].ID != 0x100 || got[0].Data[0] != 0xAB {
		t.Fatalf("got = %v", got)
	}
	want := bus.FrameTime(Frame{ID: 0x100, Data: []byte{0xAB}})
	if at != sim.Time(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if a.Sent != 1 || b.Received != 1 {
		t.Fatalf("counters: sent=%d received=%d", a.Sent, b.Received)
	}
}

func TestNoSelfReception(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	selfGot := 0
	a.OnReceive(MatchAll, func(Frame, sim.Time) { selfGot++ })
	_ = a.Send(Frame{ID: 1})
	eng.Run()
	if selfGot != 0 {
		t.Fatal("node received its own frame")
	}
}

func TestArbitrationByID(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	c := bus.AttachNode("C")
	var order []uint32
	c.OnReceive(MatchAll, func(f Frame, _ sim.Time) { order = append(order, f.ID) })
	// Enqueue while the bus is busy so arbitration has real contenders:
	// first frame occupies the bus, then 0x050 must beat 0x200.
	_ = a.Send(Frame{ID: 0x300})
	_ = a.Send(Frame{ID: 0x200})
	_ = b.Send(Frame{ID: 0x050})
	eng.Run()
	if len(order) != 3 || order[0] != 0x300 || order[1] != 0x050 || order[2] != 0x200 {
		t.Fatalf("order = %03X", order)
	}
}

func TestAcceptanceFilter(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var got []uint32
	b.OnReceive(Filter{ID: 0x100, Mask: 0x700}, func(f Frame, _ sim.Time) { got = append(got, f.ID) })
	_ = a.Send(Frame{ID: 0x101})
	_ = a.Send(Frame{ID: 0x201})
	_ = a.Send(Frame{ID: 0x1FF})
	eng.Run()
	if len(got) != 2 || got[0] != 0x101 || got[1] != 0x1FF {
		t.Fatalf("filtered = %03X", got)
	}
}

func TestCorruptionRetransmits(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	delivered := 0
	b.OnReceive(MatchAll, func(Frame, sim.Time) { delivered++ })
	fail := 2
	bus.SetFaultInjector(func(Frame) FaultAction {
		if fail > 0 {
			fail--
			return Corrupt
		}
		return Deliver
	})
	_ = a.Send(Frame{ID: 0x10, Data: []byte{1}})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	st := bus.Stats()
	if st.FramesCorrupted != 2 || st.FramesDelivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if a.State() != ErrorActive {
		t.Fatalf("state = %v", a.State())
	}
}

func TestBusOffAfterPersistentErrors(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	bus.AttachNode("B")
	bus.SetFaultInjector(func(Frame) FaultAction { return Corrupt })
	_ = a.Send(Frame{ID: 0x10})
	eng.Run()
	if a.State() != BusOff {
		t.Fatalf("state = %v, want bus-off", a.State())
	}
	if err := a.Send(Frame{ID: 0x11}); !errors.Is(err, ErrBusOff) {
		t.Fatalf("Send on bus-off node = %v", err)
	}
	// 255/8 + 1 = 32 corruptions before TEC exceeds 255.
	if st := bus.Stats(); st.FramesCorrupted != 32 {
		t.Fatalf("corrupted = %d, want 32", st.FramesCorrupted)
	}
}

func TestLoseDropsSilently(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	delivered := 0
	b.OnReceive(MatchAll, func(Frame, sim.Time) { delivered++ })
	bus.SetFaultInjector(func(Frame) FaultAction { return Lose })
	_ = a.Send(Frame{ID: 0x10})
	eng.Run()
	if delivered != 0 {
		t.Fatal("lost frame delivered")
	}
	if st := bus.Stats(); st.FramesLost != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTapSeesAllTraffic(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	bus.AttachNode("B")
	var seen []uint32
	bus.Tap(func(f Frame, _ sim.Time) { seen = append(seen, f.ID) })
	_ = a.Send(Frame{ID: 3})
	_ = a.Send(Frame{ID: 1})
	eng.Run()
	if len(seen) != 2 {
		t.Fatalf("tap saw %v", seen)
	}
}

func TestLoadAndFrameTime(t *testing.T) {
	eng, bus := newBus(125_000)
	a := bus.AttachNode("A")
	bus.AttachNode("B")
	f := Frame{ID: 1, Data: make([]byte, 8)}
	ft := bus.FrameTime(f)
	// 130 bits at 125 kbit/s = 1040 µs.
	if ft != 1040 {
		t.Fatalf("FrameTime = %v, want 1040", ft)
	}
	_ = a.Send(f)
	eng.Run()
	if load := bus.Load(); load < 0.99 || load > 1.01 {
		t.Fatalf("load = %f, want ~1 (bus busy the whole run)", load)
	}
}

func TestQueueFIFOPerNodeSameID(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var payloads []byte
	b.OnReceive(MatchAll, func(f Frame, _ sim.Time) { payloads = append(payloads, f.Data[0]) })
	for i := byte(0); i < 5; i++ {
		_ = a.Send(Frame{ID: 0x42, Data: []byte{i}})
	}
	eng.Run()
	for i := byte(0); i < 5; i++ {
		if payloads[i] != i {
			t.Fatalf("payloads = %v", payloads)
		}
	}
}

func TestSenderDataReuseIsSafe(t *testing.T) {
	eng, bus := newBus(500_000)
	a := bus.AttachNode("A")
	b := bus.AttachNode("B")
	var got byte
	b.OnReceive(MatchAll, func(f Frame, _ sim.Time) { got = f.Data[0] })
	buf := []byte{7}
	_ = a.Send(Frame{ID: 1, Data: buf})
	buf[0] = 99 // caller mutates after Send
	eng.Run()
	if got != 7 {
		t.Fatalf("got = %d, frame aliased caller buffer", got)
	}
}

func TestQuickArbitrationDeliversLowestFirst(t *testing.T) {
	f := func(ids []uint16) bool {
		if len(ids) == 0 {
			return true
		}
		if len(ids) > 32 {
			ids = ids[:32]
		}
		eng, bus := newBus(500_000)
		tx := bus.AttachNode("TX")
		rx := bus.AttachNode("RX")
		var order []uint32
		rx.OnReceive(MatchAll, func(fr Frame, _ sim.Time) { order = append(order, fr.ID) })
		for _, id := range ids {
			_ = tx.Send(Frame{ID: uint32(id) & 0x7FF})
		}
		eng.Run()
		if len(order) != len(ids) {
			return false
		}
		// After the first frame (sent on an idle bus), delivery must be
		// sorted by id since all contenders were queued while busy.
		for i := 2; i < len(order); i++ {
			if order[i-1] > order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFreeDeepQueue pins steady-state Send plus delivery at zero
// heap allocations while the transmit queue holds more than 10,000
// frames, the depth a 64 KiB ISO-TP transfer builds.
func TestAllocFreeDeepQueue(t *testing.T) {
	const depth = 12_000
	eng, bus := newBus(500_000)
	tx := bus.AttachNode("TX")
	rx := bus.AttachNode("RX")
	delivered := 0
	rx.OnReceive(MatchAll, func(Frame, sim.Time) { delivered++ })
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for range depth {
		if err := tx.Send(Frame{ID: 0x600, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	ids := [...]uint32{0x600, 0x5FF, 0x601, 0x600}
	i := 0
	step := func() {
		i++
		_ = tx.Send(Frame{ID: ids[i%len(ids)], Data: data})
		for want := delivered + 1; delivered < want; {
			eng.Step()
		}
	}
	for range 100 {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("Send plus delivery at queue depth %d: %v allocs/op, want 0", tx.QueueLen(), allocs)
	}
	if tx.QueueLen() < 10_000 {
		t.Fatalf("queue drained to %d frames", tx.QueueLen())
	}
}
