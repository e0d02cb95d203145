package mptcp

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

func mptcpNet(k int) (*topo.FatTree, []fabric.Endpoint) {
	cfg := topo.Config{
		Seed:        5,
		SwitchQueue: fabric.FIFOQueues(200 * 9000),
	}
	net := topo.NewFatTree(k, cfg)
	th := make([]fabric.Endpoint, net.NumHosts())
	for i, h := range net.Hosts {
		th[i].Init(h, net)
	}
	return net, th
}

func newFlow(net *topo.FatTree, th []fabric.Endpoint, src, dst int32, flow uint64, size int64, subflows int) *Flow {
	cfg := DefaultConfig()
	cfg.Subflows = subflows
	f := NewSenderHalf(&th[src], &th[dst], flow, size, net.Paths(src, dst), net.Rand, cfg, nil)
	f.AttachReceivers(&th[dst], net.Paths(dst, src), net.Rand, nil, nil)
	f.Start()
	return f
}

func TestMPTCPTransferCompletes(t *testing.T) {
	net, th := mptcpNet(4)
	f := newFlow(net, th, 0, 15, 100, 1_800_000, 4)
	net.EL.RunUntil(100 * sim.Millisecond)
	if !f.Complete() {
		t.Fatal("MPTCP transfer incomplete")
	}
	if f.ReceivedBytes() != 1_800_000 {
		t.Errorf("received %d, want 1800000", f.ReceivedBytes())
	}
}

func TestMPTCPUsesMultipleSubflows(t *testing.T) {
	net, th := mptcpNet(4)
	f := newFlow(net, th, 0, 15, 100, 9_000_000, 4)
	net.EL.RunUntil(100 * sim.Millisecond)
	if !f.Complete() {
		t.Fatal("incomplete")
	}
	active := 0
	for _, s := range f.Senders {
		if s.AckedBytes > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d subflows carried data", active)
	}
}

func TestMPTCPLIAIsBounded(t *testing.T) {
	// LIA's per-ack increment must never exceed uncoupled NewReno's 1/w.
	net, th := mptcpNet(4)
	f := newFlow(net, th, 0, 15, 100, -1, 4)
	net.EL.RunUntil(5 * sim.Millisecond)
	for _, s := range f.Senders {
		if s.SRTT() == 0 {
			continue
		}
		inc := f.liaIncrease(s)
		if inc > 1/s.Cwnd()+1e-12 {
			t.Errorf("LIA increment %v exceeds NewReno bound %v", inc, 1/s.Cwnd())
		}
		if inc <= 0 {
			t.Errorf("LIA increment %v not positive", inc)
		}
	}
}

func TestMPTCPOutperformsSinglePathUnderCollision(t *testing.T) {
	// Two transfers cross the core simultaneously. With one subflow each,
	// colliding paths halve throughput; with 8 subflows MPTCP spreads load
	// and finishes faster in aggregate. Run both configurations on the
	// same traffic pattern and compare total completion time.
	run := func(subflows int) sim.Time {
		net, th := mptcpNet(4)
		var last sim.Time
		n := 0
		for i := 0; i < 4; i++ {
			f := newFlow(net, th, int32(i), int32(12+i), uint64(100*i+1), 9_000_000, subflows)
			f.OnComplete = func(f *Flow) {
				n++
				if f.CompletedAt > last {
					last = f.CompletedAt
				}
			}
		}
		net.EL.RunUntil(sim.Second)
		if n != 4 {
			t.Fatalf("subflows=%d: %d/4 flows completed", subflows, n)
		}
		return last
	}
	single := run(1)
	multi := run(8)
	if multi > single {
		t.Errorf("8-subflow MPTCP (%v) slower than single-path (%v)", multi, single)
	}
}

func TestSharedSourceStripesExactly(t *testing.T) {
	// The shared stream must be claimed exactly once: total received equals
	// the stream size even with many subflows and retransmissions.
	net, th := mptcpNet(4)
	f := newFlow(net, th, 0, 15, 100, 450_000, 8)
	net.EL.RunUntil(200 * sim.Millisecond)
	if !f.Complete() {
		t.Fatal("incomplete")
	}
	var rcvd int64
	for _, r := range f.Receivers {
		rcvd += r.Bytes
	}
	if rcvd != 450_000 {
		t.Errorf("subflow bytes sum to %d, want exactly 450000", rcvd)
	}
}
