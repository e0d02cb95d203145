package fabric

import (
	"testing"

	"ndp/internal/sim"
)

func TestPortSerializationTiming(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sink := NewCountingSink(el)
	var arrivals []sim.Time
	sink.OnPacket = func(p *Packet) { arrivals = append(arrivals, el.Now()) }
	port := NewPort(el, "p", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	port.Connect(sink)

	// Two 9000B packets at 10Gb/s: 7.2us each, 500ns propagation.
	port.Enqueue(a.NewData(1, 0, 1, 0, 9000))
	port.Enqueue(a.NewData(1, 0, 1, 1, 9000))
	el.Run()

	want := []sim.Time{7700 * sim.Nanosecond, 14900 * sim.Nanosecond}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrivals))
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, arrivals[i], want[i])
		}
	}
	if port.BytesSent != 18000 || port.PacketsSent != 2 {
		t.Errorf("telemetry: bytes=%d pkts=%d", port.BytesSent, port.PacketsSent)
	}
	noLeak(t, a)
}

func TestPortPauseResumesAtBoundary(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sink := NewCountingSink(el)
	port := NewPort(el, "p", NewFIFOQueue(0), 10e9, 0)
	port.Connect(sink)

	port.Enqueue(a.NewData(1, 0, 1, 0, 9000))
	port.Enqueue(a.NewData(1, 0, 1, 1, 9000))
	// Pause mid-first-packet: first packet completes, second waits.
	el.At(sim.Microsecond, func() { port.SetPaused(true) })
	el.At(100*sim.Microsecond, func() { port.SetPaused(false) })
	el.Run()

	if sink.Packets != 2 {
		t.Fatalf("delivered %d, want 2", sink.Packets)
	}
	// Second packet starts at 100us, finishes 107.2us.
	if got, want := sink.LastAt, sim.Time(107200)*sim.Nanosecond; got != want {
		t.Errorf("last arrival %v, want %v", got, want)
	}
	if port.PauseCount != 1 {
		t.Errorf("PauseCount = %d, want 1", port.PauseCount)
	}
	noLeak(t, a)
}

func TestPortUtilization(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sink := NewCountingSink(el)
	port := NewPort(el, "p", NewFIFOQueue(0), 10e9, 0)
	port.Connect(sink)
	for i := 0; i < 10; i++ {
		port.Enqueue(a.NewData(1, 0, 1, int64(i), 9000))
	}
	// Also a control packet, which should not count toward data utilization.
	port.Enqueue(a.NewControl(Ack, 1, 1, 0))
	el.Run()
	util := port.Utilization(el.Now())
	if util < 0.98 || util > 1.0 {
		t.Errorf("utilization = %v, want ~1.0 (back-to-back line rate)", util)
	}
	noLeak(t, a)
}

func TestDemuxDispatchAndListen(t *testing.T) {
	a := NewArena()
	d := NewDemux()
	var got []uint64
	d.Register(1, SinkFunc(func(p *Packet) { got = append(got, p.Flow); Free(p) }))
	listened := 0
	d.Listen = func(p *Packet) Sink {
		if p.Flags&FlagSYN == 0 {
			return nil // reject non-SYN unknown packets
		}
		listened++
		return SinkFunc(func(p *Packet) { got = append(got, 100+p.Flow); Free(p) })
	}

	p1 := a.NewData(1, 0, 1, 0, 100)
	d.Receive(p1)

	syn := a.NewData(2, 0, 1, 0, 100)
	syn.Flags |= FlagSYN
	d.Receive(syn)
	// Second packet for flow 2 must hit the now-registered handler without
	// invoking Listen again.
	d.Receive(a.NewData(2, 0, 1, 1, 100))

	// Unknown, non-SYN: freed and counted.
	d.Receive(a.NewData(3, 0, 1, 0, 100))

	if len(got) != 3 || got[0] != 1 || got[1] != 102 || got[2] != 102 {
		t.Errorf("dispatch order = %v", got)
	}
	if listened != 1 {
		t.Errorf("Listen invoked %d times, want 1", listened)
	}
	if d.Unclaimed != 1 {
		t.Errorf("Unclaimed = %d, want 1", d.Unclaimed)
	}
	noLeak(t, a)
}

// Build a 3-node chain host0 -> switch -> host1 and verify end-to-end
// forwarding with a source route.
func TestSwitchSourceRouting(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sw := NewSwitch(el, 0, "s0")
	sw.Route = func(s *Switch, p *Packet) int {
		if p.Path == nil {
			return -1
		}
		out := int(p.Path[p.Hop])
		p.Hop++
		return out
	}

	h0 := NewHost(el, 0, "h0")
	h1 := NewHost(el, 1, "h1")
	sink := NewCountingSink(el)
	h1.Stack = sink

	// h0 NIC -> switch; switch port 0 -> h1, port 1 -> h0 (unused).
	h0.NIC = NewPort(el, "h0->sw", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	h0.NIC.Connect(sw)
	toH1 := NewPort(el, "sw->h1", NewFIFOQueue(8*9000), 10e9, 500*sim.Nanosecond)
	toH1.Connect(h1)
	toH0 := NewPort(el, "sw->h0", NewFIFOQueue(8*9000), 10e9, 500*sim.Nanosecond)
	toH0.Connect(h0)
	sw.AddPort(toH1)
	sw.AddPort(toH0)

	p := a.NewData(1, 0, 1, 0, 9000)
	p.Path = []int16{0}
	h0.Send(p)

	// Packet with no route: dropped at switch.
	bad := a.NewData(2, 0, 1, 0, 9000)
	h0.Send(bad)

	el.Run()
	if sink.Packets != 1 || sink.DataBytes != 9000 {
		t.Fatalf("delivered %d packets / %d bytes, want 1 / 9000", sink.Packets, sink.DataBytes)
	}
	if sw.RouteDrops != 1 {
		t.Errorf("RouteDrops = %d, want 1", sw.RouteDrops)
	}
	// Two store-and-forward hops: 2 * (7.2us + 500ns) = 15.4us.
	if want := sim.Time(15400) * sim.Nanosecond; sink.LastAt != want {
		t.Errorf("arrival at %v, want %v", sink.LastAt, want)
	}
	noLeak(t, a)
}

// TestFlightRingSizedFromLink: the flight buffer is sized from what the link
// can hold — 500 ns of propagation at 51.2 ns a header is 9 in propagation,
// plus the one serializing and the one being delivered: 16 slots, not 64 —
// and a line-rate stream of headers, the densest the link can carry, never
// outgrows it. Links that hold more than 64 start at 64 as before.
func TestFlightRingSizedFromLink(t *testing.T) {
	for _, tc := range []struct {
		delay sim.Time
		rate  int64
		want  int
	}{
		{500 * sim.Nanosecond, 10e9, 16},
		{0, 10e9, 2},
		{sim.Microsecond, 100e9, 64},
		{sim.Millisecond, 10e9, 64},
		{500 * sim.Nanosecond, 0, 64},
	} {
		var r Ring[flightEntry]
		r.Push(flightEntry{}, flightCap(tc.delay, tc.rate))
		if got := r.Cap(); got != tc.want {
			t.Errorf("a flight sized by flightCap(%v, %d) has %d slots, want %d", tc.delay, tc.rate, got, tc.want)
		}
	}
	el := sim.NewEventList()
	a := AttachArena(el)
	sink := NewCountingSink(el)
	port := NewPort(el, "p", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	port.Connect(sink)
	for i := 0; i < 1000; i++ {
		port.Enqueue(a.NewControl(Ack, 1, 0, 1))
	}
	el.Run()
	if sink.Packets != 1000 || port.flight.Cap() != 16 {
		t.Errorf("delivered %d headers through a flight buffer of %d, want 1000 through 16", sink.Packets, port.flight.Cap())
	}
	noLeak(t, a)
}
