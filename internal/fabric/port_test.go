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
	if port.PacketsSent() != 2 {
		t.Errorf("PacketsSent = %d, want 2", port.PacketsSent())
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
	el.Schedule(sim.Microsecond, FuncEvent(func() { port.SetPaused(true) }), 0)
	el.Schedule(100*sim.Microsecond, FuncEvent(func() { port.SetPaused(false) }), 0)
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

// Build a 3-node chain host0 -> switch -> host1 and verify end-to-end
// forwarding with a source route.
func TestSwitchSourceRouting(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sw := NewSwitch(el, 0, "s0")
	sw.Route = func(s *Switch, p *Packet) int { return int(p.Route) }

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
	p.Route = 0
	h0.Send(p)

	// Packet with no route (destination-routed, -1): dropped at switch.
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
