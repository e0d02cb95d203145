package phost

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// phostNet builds a FatTree with 8-packet drop-tail queues and per-packet
// ECMP spraying — the §6.2 comparison configuration.
func phostNet(k int) (*topo.FatTree, []Host) {
	cfg := topo.Config{
		Seed:        9,
		SwitchQueue: fabric.FIFOQueues(8 * 9000),
	}
	net := topo.NewFatTree(k, cfg)
	hosts := make([]Host, net.NumHosts())
	for i, h := range net.Hosts {
		hosts[i].Init(h, net, DefaultConfig())
	}
	return net, hosts
}

func TestPHostSingleTransfer(t *testing.T) {
	net, ph := phostNet(4)
	s := ph[0].Connect(&ph[15], 1, 900_000, nil)
	net.EL.RunUntil(100 * sim.Millisecond)
	if !s.Complete() {
		t.Fatal("transfer incomplete")
	}
}

func TestPHostRecoversSilentLossViaRTO(t *testing.T) {
	// An incast overflows the 8-packet drop-tail queues: losses are silent
	// and only the RTO recovers them. All transfers must still complete.
	net, ph := phostNet(4)
	done := 0
	var ss []*Sender
	for i := 1; i < 16; i++ {
		s := ph[i].Connect(&ph[0], uint64(i), 270_000, func(*Sender) { done++ })
		ss = append(ss, s)
	}
	net.EL.RunUntil(2 * sim.Second)
	if done != 15 {
		t.Fatalf("%d/15 flows completed", done)
	}
	var rtx int64
	for _, s := range ss {
		rtx += s.Rtx
	}
	if rtx == 0 {
		t.Error("expected RTO retransmissions after drop-tail incast losses")
	}
	if d := net.CollectStats().Drops; d == 0 {
		t.Error("expected drops at 8-packet drop-tail queues during incast")
	}
}

func TestPHostTokensPaceSteadyState(t *testing.T) {
	net, ph := phostNet(4)
	var arrivals []sim.Time
	h0 := net.Hosts[0]
	inner := h0.Stack
	h0.Stack = fabric.SinkFunc(func(p *fabric.Packet) {
		if p.Type == fabric.Data {
			arrivals = append(arrivals, net.EL.Now())
		}
		inner.Receive(p)
	})
	ph[15].Connect(&ph[0], 1, 2_700_000, nil)
	net.EL.RunUntil(100 * sim.Millisecond)
	if len(arrivals) < 100 {
		t.Fatalf("only %d arrivals", len(arrivals))
	}
	var sum sim.Time
	n := 0
	for i := 60; i < len(arrivals); i++ {
		sum += arrivals[i] - arrivals[i-1]
		n++
	}
	mean := sum / sim.Time(n)
	if mean < 7*sim.Microsecond || mean > 9*sim.Microsecond {
		t.Errorf("token-paced inter-arrival %v, want ~7.3us", mean)
	}
}

// receiver returns host's receiver of flow, if it has one.
func receiver(host *Host, flow uint64) *Receiver {
	e, _ := host.Flows.Get(flow)
	r, _ := e.(*Receiver)
	return r
}

// TestPHostAttachOpensReceiver: a flow's receiver opens on the destination
// by the sender's Attach command, the minimum path delay after Connect and
// so ahead of the first data packet, and takes the whole transfer.
func TestPHostAttachOpensReceiver(t *testing.T) {
	net, ph := phostNet(4)
	ph[15].Connect(&ph[0], 7, 90_000, nil)
	at := net.MinPathDelay(15, 0)
	net.EL.RunUntil(at - 1)
	if receiver(&ph[0], 7) != nil {
		t.Fatal("the receiver opened before its attach command was due")
	}
	net.EL.RunUntil(at)
	r := receiver(&ph[0], 7)
	if r == nil || r.Bytes() != 0 {
		t.Fatal("the attach command did not open an empty receiver")
	}
	net.EL.RunUntil(50 * sim.Millisecond)
	if !r.Complete() || r.Bytes() != 90_000 || ph[0].Strays.Data != 0 {
		t.Errorf("complete %v, %d bytes, %d stray data packets: want 90000 bytes and no stray",
			r.Complete(), r.Bytes(), ph[0].Strays.Data)
	}
}

// TestPHostDataAfterReleaseIsStray: once a flow's release has taken its
// receiver out of the table, nothing opens the flow again: a late data
// packet is a counted stray and leaves no entry.
func TestPHostDataAfterReleaseIsStray(t *testing.T) {
	net, ph := phostNet(4)
	s := ph[15].Connect(&ph[0], 7, 9000, nil)
	net.EL.RunUntil(3 * sim.Millisecond) // past completion + 2*MSL: released
	if !s.Complete() {
		t.Fatal("the transfer did not complete")
	}
	if _, ok := ph[0].Flows.Get(7); ok {
		t.Fatal("the flow's release did not take its receiver out of the table")
	}
	p := fabric.AttachArena(net.EL).NewData(7, 15, 0, 0, 9000)
	ph[0].Host.Receive(p)
	if _, ok := ph[0].Flows.Get(7); ok || ph[0].Strays.Data != 1 {
		t.Errorf("late data packet: entry %v, %d stray data packets; want no entry and one stray", ok, ph[0].Strays.Data)
	}
	net.Close()
	if n := net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
}
