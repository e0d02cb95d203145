package fabric

import (
	"testing"

	"ndp/internal/sim"
)

// Two senders converge on one egress through a lossless switch; nothing may
// be dropped, and the slower admission must pause the uplinks.
func TestLosslessNoDropsAndPause(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sw := NewSwitch(el, 0, "s0")
	sw.Route = func(s *Switch, p *Packet) int { return 0 } // everything to port 0

	sink := NewCountingSink(el)
	const mtu = 1500
	egress := NewPort(el, "sw->dst", NewFIFOQueue(0), 10e9, 0)
	egress.Connect(sink)
	sw.AddPort(egress)
	sw.EnableLossless(4*mtu, 2*mtu, mtu)

	// Two source ports feeding the switch at line rate.
	srcA := NewPort(el, "a->sw", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	srcB := NewPort(el, "b->sw", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	sw.NewIngress(srcA)
	sw.NewIngress(srcB)

	const n = 200
	for i := 0; i < n; i++ {
		srcA.Enqueue(a.NewData(1, 0, 9, int64(i), mtu))
		srcB.Enqueue(a.NewData(2, 1, 9, int64(i), mtu))
	}
	el.Run()

	if sink.Packets != 2*n {
		t.Fatalf("delivered %d packets, want %d (lossless must not drop)", sink.Packets, 2*n)
	}
	if egress.Q.Stats().Drops != 0 {
		t.Errorf("egress dropped %d packets", egress.Q.Stats().Drops)
	}
	if srcA.PauseCount == 0 && srcB.PauseCount == 0 {
		t.Error("2:1 overload should have generated PFC pauses")
	}
	noLeak(t, a)
}

// A paused ingress must also hold packets destined for an uncongested
// egress: head-of-line blocking is the PFC collateral damage the paper
// describes.
func TestLosslessHeadOfLineBlocking(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sw := NewSwitch(el, 0, "s0")
	// Route by destination: host 0 -> port 0, host 1 -> port 1.
	sw.Route = func(s *Switch, p *Packet) int { return int(p.Dst) }

	const mtu = 1500
	congested := NewCountingSink(el)
	clear := NewCountingSink(el)
	// Congested egress is slow (1Gb/s), the other fast.
	p0 := NewPort(el, "sw->0", NewFIFOQueue(0), 1e9, 0)
	p0.Connect(congested)
	p1 := NewPort(el, "sw->1", NewFIFOQueue(0), 10e9, 0)
	p1.Connect(clear)
	sw.AddPort(p0)
	sw.AddPort(p1)
	sw.EnableLossless(2*mtu, 2*mtu, mtu)

	src := NewPort(el, "x->sw", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	ingress := sw.NewIngress(src)

	// Burst to the congested egress, then one packet for the clear egress.
	for i := 0; i < 20; i++ {
		src.Enqueue(a.NewData(1, 0, 0, int64(i), mtu))
	}
	victim := a.NewData(2, 0, 1, 0, mtu)
	src.Enqueue(victim)

	// If there were no HOL blocking, the victim would arrive after ~21
	// serializations at 10G plus its own: well under 40us. With blocking it
	// waits for the 1G egress to drain most of the burst.
	el.Run()
	if clear.Packets != 1 {
		t.Fatalf("victim not delivered")
	}
	if clear.LastAt < 100*sim.Microsecond {
		t.Errorf("victim arrived at %v; expected HOL blocking to delay it past 100us", clear.LastAt)
	}
	if ingress.PauseEvents == 0 {
		t.Error("expected pause events at the ingress")
	}
	if congested.Packets != 20 {
		t.Errorf("congested sink got %d, want 20", congested.Packets)
	}
	noLeak(t, a)
}

// A port added after EnableLossless must still drain held ingress packets
// when its queue empties: the OnDequeue hook has to be installed at port
// attach, not only on the ports present when lossless mode was enabled.
// Without it, packets held for the late port strand forever — a silent
// deadlock only the arena leak accounting would catch.
func TestLosslessEnableThenAddPort(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	sw := NewSwitch(el, 0, "s0")
	sw.Route = func(s *Switch, p *Packet) int { return 0 }

	const mtu = 1500
	// Lossless mode first, egress port second: the enable-then-add order
	// under test.
	sw.EnableLossless(2*mtu, 2*mtu, mtu)
	sink := NewCountingSink(el)
	egress := NewPort(el, "sw->dst", NewFIFOQueue(0), 1e9, 0)
	egress.Connect(sink)
	sw.AddPort(egress)

	src := NewPort(el, "src->sw", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	sw.NewIngress(src)

	// 10G in, 1G out: the tiny egress budget fills and the overflow is
	// held at the ingress; only the dequeue hook can release it.
	const n = 50
	for i := 0; i < n; i++ {
		src.Enqueue(a.NewData(1, 0, 0, int64(i), mtu))
	}
	el.Run()

	if sink.Packets != n {
		t.Fatalf("delivered %d packets, want %d (held packets stranded: no OnDequeue hook on late-added port)", sink.Packets, n)
	}
	noLeak(t, a)
}

// Pause must propagate transitively: a long chain with a slow sink must not
// drop anything anywhere even with tiny egress budgets.
func TestLosslessCascade(t *testing.T) {
	el := sim.NewEventList()
	a := AttachArena(el)
	const mtu = 1500
	sink := NewCountingSink(el)

	// src -> sw1 -> sw2 -> sink(1G)
	sw1 := NewSwitch(el, 1, "sw1")
	sw2 := NewSwitch(el, 2, "sw2")
	sw1.Route = func(s *Switch, p *Packet) int { return 0 }
	sw2.Route = func(s *Switch, p *Packet) int { return 0 }

	sw2out := NewPort(el, "sw2->dst", NewFIFOQueue(0), 1e9, 0)
	sw2out.Connect(sink)
	sw2.AddPort(sw2out)
	sw2.EnableLossless(2*mtu, 2*mtu, mtu)

	sw1out := NewPort(el, "sw1->sw2", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	sw1.AddPort(sw1out)
	sw1.EnableLossless(2*mtu, 2*mtu, mtu)
	sw2.NewIngress(sw1out)

	src := NewPort(el, "src->sw1", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	sw1.NewIngress(src)

	const n = 100
	for i := 0; i < n; i++ {
		src.Enqueue(a.NewData(1, 0, 0, int64(i), mtu))
	}
	el.Run()

	if sink.Packets != n {
		t.Fatalf("delivered %d, want %d", sink.Packets, n)
	}
	if sw1out.PauseCount == 0 {
		t.Error("pause should have cascaded to sw1's uplink")
	}
	if src.PauseCount == 0 {
		t.Error("pause should have cascaded to the source")
	}
	noLeak(t, a)
}
