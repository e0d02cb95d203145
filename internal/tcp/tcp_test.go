package tcp

import (
	"testing"
	"testing/quick"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// tcpNet builds a FatTree with drop-tail (or ECN) queues and a TCP host on
// every host, sending its pooled flows' Releases through the network.
func tcpNet(k int, queueBytes, markBytes int) (*topo.FatTree, []fabric.Endpoint) {
	cfg := topo.Config{Seed: 7}
	if markBytes > 0 {
		cfg.SwitchQueue = fabric.ECNQueues(queueBytes, markBytes)
	} else {
		cfg.SwitchQueue = fabric.FIFOQueues(queueBytes)
	}
	net := topo.NewFatTree(k, cfg)
	hosts := make([]fabric.Endpoint, net.NumHosts())
	for i, h := range net.Hosts {
		hosts[i].Init(h, net)
	}
	return net, hosts
}

// startFlow wires one TCP flow between two hosts over route 0 each way and
// starts it.
func startFlow(th []fabric.Endpoint, src, dst int32, flow uint64, size int64, cfg Config) (*Sender, *Receiver) {
	snd := NewSender(&th[src], dst, flow, 0, NewFixedSource(size, cfg.withDefaults().MSS), cfg)
	rcv := NewReceiver(&th[dst], src, flow, 0)
	snd.Start()
	return snd, rcv
}

func TestTCPSingleTransfer(t *testing.T) {
	net, th := tcpNet(4, 200*9000, 0)
	cfg := DefaultConfig()
	snd, rcv := startFlow(th, 0, 15, 1, 900_000, cfg)
	net.EL.RunUntil(100 * sim.Millisecond)
	if !snd.Complete() || !rcv.Complete() {
		t.Fatalf("transfer incomplete: snd=%v rcv=%v", snd.Complete(), rcv.Complete())
	}
	if rcv.Bytes != 900_000 {
		t.Errorf("received %d bytes, want 900000", rcv.Bytes)
	}
	if snd.Timeouts != 0 {
		t.Errorf("unexpected timeouts on an idle network: %d", snd.Timeouts)
	}
}

func TestTCPHandshakeCostsOneRTT(t *testing.T) {
	// With handshake, first data arrives ~1 RTT later than without.
	first := func(handshake bool) (at sim.Time) {
		net, th := tcpNet(4, 200*9000, 0)
		cfg := DefaultConfig()
		cfg.Handshake = handshake
		_, rcv := startFlow(th, 0, 15, 1, 9000, cfg)
		rcv.OnData = func(int64) {
			if at == 0 {
				at = net.EL.Now()
			}
		}
		net.EL.RunUntil(10 * sim.Millisecond)
		return at
	}
	with := first(true)
	without := first(false)
	if with <= without {
		t.Fatalf("handshake arrival %v not later than TFO %v", with, without)
	}
	// SYN + SYN-ACK are 64B control packets: roughly 2x 6-hop control
	// latency ~ 6-8us extra.
	if with-without > 20*sim.Microsecond {
		t.Errorf("handshake penalty %v implausibly large", with-without)
	}
}

func TestTCPFastRetransmit(t *testing.T) {
	// Two senders bursting into one downlink overflow the 8-packet queue;
	// fast retransmit must recover without waiting for the 200ms RTO.
	net, th := tcpNet(4, 8*9000, 0)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 30 // combined burst overflows the 8-packet queue
	s1, r1 := startFlow(th, 1, 0, 1, 900_000, cfg)
	s2, r2 := startFlow(th, 2, 0, 2, 900_000, cfg)
	net.EL.RunUntil(2 * sim.Second)
	if !r1.Complete() || !r2.Complete() {
		t.Fatal("transfers incomplete")
	}
	if s1.Rtx+s2.Rtx == 0 {
		t.Error("expected retransmissions with 60 packets bursting into an 8-packet queue")
	}
	// At least one flow must have recovered via fast retransmit (i.e.
	// finished before the 200ms MinRTO could fire); the other may be
	// RTO-bound — exactly the tail-loss pathology §2.3 describes.
	first := r1.CompletedAt
	if r2.CompletedAt < first {
		first = r2.CompletedAt
	}
	if first >= cfg.MinRTO {
		t.Errorf("fastest completion %v not before MinRTO %v: fast retransmit failed", first, cfg.MinRTO)
	}
}

func TestTCPRTORecoversTailLoss(t *testing.T) {
	// Lose the tail of a transfer: only the RTO can recover it.
	net, th := tcpNet(4, 2*9000, 0) // 2-packet queues drop aggressively
	cfg := DefaultConfig()
	cfg.MinRTO = 2 * sim.Millisecond
	cfg.InitialCwnd = 20
	snd, rcv := startFlow(th, 0, 15, 1, 180_000, cfg)
	net.EL.RunUntil(2 * sim.Second)
	if !rcv.Complete() {
		t.Fatalf("transfer incomplete; timeouts=%d rtx=%d", snd.Timeouts, snd.Rtx)
	}
}

func TestTCPCwndGrowth(t *testing.T) {
	net, th := tcpNet(4, 200*9000, 0)
	cfg := DefaultConfig()
	cfg.InitialCwnd = 2
	snd, _ := startFlow(th, 0, 15, 1, 4_500_000, cfg)
	net.EL.RunUntil(2 * sim.Millisecond)
	if snd.Cwnd() <= 2 {
		t.Errorf("cwnd did not grow from 2: %v", snd.Cwnd())
	}
	if snd.SRTT() == 0 {
		t.Error("no RTT samples taken")
	}
}

func TestDCTCPKeepsQueueShort(t *testing.T) {
	// Two DCTCP flows share one downlink with ECN marking at 3 packets.
	// DCTCP must hold the queue near the threshold: far below the 200pkt
	// plain-TCP operating point, with no drops.
	net, th := tcpNet(4, 200*9000, 3*9000)
	cfg := DefaultConfig()
	cfg.DCTCP = true
	cfg.MinRTO = 10 * sim.Millisecond
	s1, _ := startFlow(th, 1, 0, 1, 20_000_000, cfg)
	s2, _ := startFlow(th, 2, 0, 2, 20_000_000, cfg)
	net.EL.RunUntil(20 * sim.Millisecond)
	if s1.Alpha() == 0 && s2.Alpha() == 0 {
		t.Error("DCTCP alpha never moved; marking not reaching senders")
	}
	// The ToR->host0 queue high watermark should be modest (DCTCP target
	// is K plus a small overshoot, not the full buffer).
	maxQ := net.Tors[0].Ports[0].Q.Stats().MaxBytes
	if maxQ > 40*9000 {
		t.Errorf("queue high watermark %d bytes; DCTCP should keep it near 3-10 packets", maxQ)
	}
	drops := net.CollectStats().Drops
	if drops != 0 {
		t.Errorf("DCTCP with 200-packet buffers dropped %d packets", drops)
	}
	// Both flows should make comparable progress (rough fairness).
	b1, b2 := s1.AckedBytes, s2.AckedBytes
	if b1 == 0 || b2 == 0 {
		t.Fatalf("throughput: %d / %d", b1, b2)
	}
	ratio := float64(b1) / float64(b2)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair DCTCP split: %d vs %d", b1, b2)
	}
}

func TestTCPNoHandshakeDupAckInflation(t *testing.T) {
	// Regression guard: dupacks during recovery must inflate, then cwnd
	// deflates to ssthresh on exit. We just assert completion correctness
	// under random drop pressure at several queue sizes.
	for _, qpkts := range []int{2, 4, 8} {
		net, th := tcpNet(4, qpkts*9000, 0)
		cfg := DefaultConfig()
		cfg.MinRTO = 2 * sim.Millisecond
		cfg.InitialCwnd = 16
		_, rcv := startFlow(th, 0, 14, 1, 450_000, cfg)
		net.EL.RunUntil(time2s())
		if !rcv.Complete() || rcv.Bytes != 450_000 {
			t.Errorf("q=%d pkts: incomplete or wrong bytes (%d)", qpkts, rcv.Bytes)
		}
	}
}

func time2s() sim.Time { return 2 * sim.Second }

// Property: any transfer size completes exactly, under loss pressure.
func TestTCPTransferSizeProperty(t *testing.T) {
	prop := func(raw uint32) bool {
		size := int64(raw%300_000) + 1
		net, th := tcpNet(4, 8*9000, 0)
		cfg := DefaultConfig()
		cfg.MinRTO = 2 * sim.Millisecond
		_, rcv := startFlow(th, 0, 15, 1, size, cfg)
		net.EL.RunUntil(2 * sim.Second)
		return rcv.Complete() && rcv.Bytes == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFixedSource(t *testing.T) {
	src := NewFixedSource(25_000, 9000)
	var sizes []int
	for {
		n := src.Claim()
		if n == 0 {
			break
		}
		sizes = append(sizes, n)
	}
	if len(sizes) != 3 || sizes[0] != 9000 || sizes[1] != 9000 || sizes[2] != 7000 {
		t.Errorf("claims = %v, want [9000 9000 7000]", sizes)
	}
	if !src.Exhausted() {
		t.Error("source should be exhausted")
	}
}

// TestAttachCommand: the receiver half of a flow is built by a command over
// the pooled sender — on the reverse route RevPick selects, in the table of
// the sender's destination, with the observers the record carries — and
// released by another: the completed receiver stays in that table until
// 2*MSL after its sender completed, when the flow's Release deletes the
// entry and hands it to the pool. The pool refuses to recycle a sender
// whose attach is still due.
func TestAttachCommand(t *testing.T) {
	net, th := tcpNet(4, 200*9000, 0)
	pool, cfg := NewPool(), DefaultConfig()
	hs, hd := net.Hosts[0], net.Hosts[15]
	flow := func(id uint64) *Sender {
		return pool.NewSender(&th[0], &th[15], id, 0, 90_000, cfg)
	}
	s := flow(7)
	var bytes int64
	var doneAt sim.Time
	at := net.MinPathDelay(0, 15)
	net.Defer(0, 15, at, s.Attach(ReceiverAttach{
		At: at, Pool: pool, RevPick: 5,
		OnData: func(n int64) { bytes += n }, OnCompleteAt: func(at sim.Time) { doneAt = at },
	}), 0)
	s.Start()
	net.EL.RunUntil(sim.Millisecond)
	e, _ := th[15].Flows.Get(7)
	rcv, _ := e.(*Receiver)
	if rcv == nil || !rcv.Complete() || !s.Complete() {
		t.Fatalf("transfer incomplete: receiver %v", rcv)
	}
	revs := net.Paths(hd.ID, hs.ID)
	if want := int16(5 % revs); rcv.route != want {
		t.Errorf("receiver acks on route %d, RevPick 5 selects %d", rcv.route, want)
	}
	if bytes != 90_000 || doneAt != rcv.CompletedAt || doneAt == 0 {
		t.Errorf("observers saw %d bytes, completion at %v; receiver completed at %v", bytes, doneAt, rcv.CompletedAt)
	}

	release := s.CompletedAt + 2*fabric.MSL
	net.EL.RunUntil(release - 1)
	if e, _ := th[15].Flows.Get(7); e != rcv || pool.receivers.Len() != 0 {
		t.Fatal("the receiver left its table before its sender was 2*MSL complete")
	}
	net.EL.RunUntil(release)
	pooled, _ := pool.receivers.Take(net.EL)
	if n := th[15].Flows.Len(); n != 0 || pooled != rcv {
		t.Errorf("after the release: %d flows in the destination's table, receiver pooled: %v", n, pooled == rcv)
	}
	if want := int64(2); net.CommandEvents() != want {
		t.Errorf("%d commands emitted, want %d (attach, release)", net.CommandEvents(), want)
	}

	net.EL.RunUntil(release + sim.Millisecond)             // quiescent: the pool may reuse both halves
	s.Attach(ReceiverAttach{At: net.EL.Now(), Pool: pool}) // an attach still due at this instant
	defer func() {
		if msg, _ := recover().(string); msg != "tcp: sender recycled before its deferred receiver attach ran" {
			t.Errorf("recovered %q, want the recycle-before-attach panic", msg)
		}
	}()
	flow(8)
	t.Error("the sender was recycled under its pending attach")
}
