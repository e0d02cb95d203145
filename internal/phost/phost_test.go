package phost

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// phostNet builds a FatTree with 8-packet drop-tail queues and per-packet
// ECMP spraying — the §6.2 comparison configuration.
func phostNet(k int) (*topo.FatTree, []*Host) {
	cfg := topo.Config{
		Seed:        9,
		SwitchQueue: fabric.FIFOQueues(8 * 9000),
	}
	net := topo.NewFatTree(k, cfg)
	hosts := make([]*Host, net.NumHosts())
	for i, h := range net.Hosts {
		hosts[i] = NewHost(h, DefaultConfig())
		hosts[i].Listen(nil)
	}
	return net, hosts
}

func TestPHostSingleTransfer(t *testing.T) {
	net, ph := phostNet(4)
	s := ph[0].Connect(15, 1, 900_000, nil)
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
		s := ph[i].Connect(0, uint64(i), 270_000, func(*Sender) { done++ })
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
	ph[15].Connect(0, 1, 2_700_000, nil)
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

func TestPHostListenCreatesReceiverLazily(t *testing.T) {
	net, ph := phostNet(4)
	done := false
	ph[0].Listen(func(r *Receiver) { done = true })
	ph[15].Connect(0, 7, 90_000, nil)
	net.EL.RunUntil(50 * sim.Millisecond)
	if !done {
		t.Fatal("receiver completion callback not invoked")
	}
	_ = net
}
