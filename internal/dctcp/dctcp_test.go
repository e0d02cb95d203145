package dctcp

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/tcp"
	"ndp/internal/topo"
)

func dctcpNet(k int) (*topo.FatTree, []*fabric.Demux) {
	cfg := topo.Config{Seed: 13, SwitchQueue: QueueFactory(9000)}
	net := topo.NewFatTree(k, cfg)
	dm := make([]*fabric.Demux, net.NumHosts())
	for i, h := range net.Hosts {
		dm[i] = fabric.NewDemux()
		h.Stack = dm[i]
	}
	return net, dm
}

func TestQueueFactorySizing(t *testing.T) {
	q := QueueFactory(9000)([]uint64{0})[0]
	eq, ok := q.(*fabric.ECNQueue)
	if !ok {
		t.Fatalf("factory returned %T, want *fabric.ECNQueue", q)
	}
	if eq.MaxQueue != BufferPackets*9000 {
		t.Errorf("buffer = %d bytes, want %d", eq.MaxQueue, BufferPackets*9000)
	}
	if eq.MarkThreshold != MarkThresholdPackets*9000 {
		t.Errorf("mark threshold = %d, want %d", eq.MarkThreshold, MarkThresholdPackets*9000)
	}
}

func TestSenderConfigIsDCTCP(t *testing.T) {
	cfg := SenderConfig(1500)
	if !cfg.DCTCP || cfg.MSS != 1500 || cfg.G != 1.0/16 {
		t.Errorf("config = %+v", cfg)
	}
}

// Incast with DCTCP: ECN keeps queues shallow enough that 200-packet
// buffers absorb the burst with no drops — the reason the paper says DCTCP
// is only ~5% off optimal on incast.
func TestDCTCPIncastNoDrops(t *testing.T) {
	net, dm := dctcpNet(4)
	done := 0
	for i := int32(1); i < 16; i++ {
		snd := NewSender(net.Hosts[i], 0, uint64(i), net.Paths(i, 0)[0], 450_000, 9000)
		rcv := NewReceiver(net.Hosts[0], i, uint64(i), net.Paths(0, i)[0])
		rcv.OnComplete = func(r *tcp.Receiver) { done++ }
		dm[i].Register(uint64(i), snd)
		dm[0].Register(uint64(i), rcv)
		snd.Start()
	}
	net.EL.RunUntil(200 * sim.Millisecond)
	if done != 15 {
		t.Fatalf("%d/15 incast flows completed", done)
	}
	if drops := net.CollectStats().Drops; drops != 0 {
		t.Errorf("DCTCP incast dropped %d packets with 200-packet buffers", drops)
	}
	if marks := net.CollectStats().Marks; marks == 0 {
		t.Error("no ECN marks during a 15:1 incast")
	}
}
