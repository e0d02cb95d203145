package dcqcn

import (
	"testing"
	"unsafe"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// dcqcnNet builds a lossless FatTree with ECN queues and a DCQCN host on
// every host.
func dcqcnNet(k int) (*topo.FatTree, []fabric.Endpoint) {
	cfg := topo.Config{
		Seed:          3,
		Lossless:      true,
		LosslessLimit: 200 * 9000,
		PFCXoff:       2 * 9000,
		PFCXon:        9000,
		SwitchQueue:   QueueFactory(9000),
	}
	net := topo.NewFatTree(k, cfg)
	dh := make([]fabric.Endpoint, net.NumHosts())
	for i, h := range net.Hosts {
		dh[i].Init(h, net)
	}
	return net, dh
}

func start(dh []fabric.Endpoint, src, dst int32, flow uint64, size int64) (*Sender, *Receiver) {
	cfg := DefaultConfig()
	s := NewSender(&dh[src], dst, flow, 0, size, cfg)
	r := NewReceiver(&dh[dst], src, flow, 0)
	s.Start()
	return s, r
}

func TestDCQCNSingleTransferLineRate(t *testing.T) {
	net, dh := dcqcnNet(4)
	s, r := start(dh, 0, 15, 1, 9_000_000)
	net.EL.RunUntil(20 * sim.Millisecond)
	s.Stop()
	if !r.Complete() {
		t.Fatal("transfer incomplete")
	}
	if r.Bytes != 9_000_000 {
		t.Errorf("bytes = %d, want 9000000", r.Bytes)
	}
	// Uncontended: ~7.25ms at line rate; allow small startup slack.
	if r.CompletedAt > 9*sim.Millisecond {
		t.Errorf("completion %v; should be near line rate (7.25ms)", r.CompletedAt)
	}
	if s.CNPs != 0 {
		t.Errorf("uncontended flow saw %d CNPs", s.CNPs)
	}
}

func TestDCQCNConvergesUnderContention(t *testing.T) {
	net, dh := dcqcnNet(4)
	s1, r1 := start(dh, 1, 0, 1, -1)
	s2, r2 := start(dh, 2, 0, 2, -1)
	net.EL.RunUntil(30 * sim.Millisecond)
	s1.Stop()
	s2.Stop()
	if s1.CNPs == 0 && s2.CNPs == 0 {
		t.Fatal("no CNPs under 2:1 contention; marking/feedback broken")
	}
	// Rates should have backed off from line rate toward a fair share.
	if s1.Rate() > 9e9 && s2.Rate() > 9e9 {
		t.Errorf("rates did not decrease: %.2g / %.2g", s1.Rate(), s2.Rate())
	}
	// Both make progress; rough fairness (within 3x).
	b1, b2 := r1.Bytes, r2.Bytes
	if b1 == 0 || b2 == 0 {
		t.Fatalf("throughput: %d / %d", b1, b2)
	}
	ratio := float64(b1) / float64(b2)
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("unfair DCQCN split: %d vs %d", b1, b2)
	}
	// Lossless: nothing dropped anywhere.
	if d := net.CollectStats().Drops; d != 0 {
		t.Errorf("drops = %d on a lossless fabric", d)
	}
}

func TestDCQCNIncastNoLoss(t *testing.T) {
	net, dh := dcqcnNet(4)
	done := 0
	var rs []*Receiver
	var ss []*Sender
	for i := int32(1); i < 16; i++ {
		s, r := start(dh, i, 0, uint64(i), 450_000)
		r.OnComplete = func(*Receiver) { done++ }
		rs = append(rs, r)
		ss = append(ss, s)
	}
	// DCQCN converges rate-based (40Mb/s additive steps), so a 15:1 incast
	// takes tens of ms to rebuild fair-share rates after the initial cuts.
	net.EL.RunUntil(500 * sim.Millisecond)
	for _, s := range ss {
		s.Stop()
	}
	if done != 15 {
		t.Fatalf("%d/15 incast flows completed", done)
	}
	if d := net.CollectStats().Drops; d != 0 {
		t.Errorf("drops = %d, want 0 (PFC must prevent loss)", d)
	}
	// Incast through PFC must have generated pauses somewhere (typically
	// the agg->ToR downlinks feeding the receiver's ToR, and cascading).
	var pauses int64
	for _, h := range net.Hosts {
		pauses += h.NIC.PauseCount
	}
	for _, sw := range net.Switches {
		for _, p := range sw.Ports {
			pauses += p.PauseCount
		}
	}
	if pauses == 0 {
		t.Error("15:1 incast on PFC fabric generated no pause events")
	}
}

func TestRateMachineDecreaseAndRecovery(t *testing.T) {
	el := sim.NewEventList()
	h := fabric.NewHost(el, 0, "h")
	h.NIC = fabric.NewPort(el, "nic", fabric.NewFIFOQueue(0), 10e9, 0)
	h.NIC.Connect(fabric.SinkFunc(func(p *fabric.Packet) { fabric.Free(p) }))
	cfg := DefaultConfig()
	var dh fabric.Endpoint
	dh.Init(h, nil)
	s := NewSender(&dh, 1, 1, -1, -1, cfg)
	s.Start()
	el.RunUntil(sim.Microsecond)
	if s.Rate() != 10e9 {
		t.Fatalf("initial rate %v, want line rate", s.Rate())
	}
	s.onCNP()
	afterCut := s.Rate()
	if afterCut >= 10e9*0.6 {
		t.Errorf("rate after first CNP (alpha=1) = %.3g, want ~half line rate", afterCut)
	}
	// Fast recovery: within F timer periods the rate approaches the target
	// (the pre-cut rate) again.
	el.RunUntil(el.Now() + 6*incTimer)
	if s.Rate() < 0.9*10e9 {
		t.Errorf("fast recovery did not approach target: %.3g", s.Rate())
	}
	s.Stop()
	el.Run()
}

// TestSplitFlowLifecycle: a flow built across two scheduling domains attaches
// its receiver by one command of the pooled sender, and when the FIN arrives
// retires the receiver and stops and retires the sender by the flow's
// release, each leaving its host's table — after which the pool hands both
// to the next flow, and refuses to while an attach is still due.
func TestSplitFlowLifecycle(t *testing.T) {
	net, dh := dcqcnNet(4)
	pool, cfg := NewPool(), DefaultConfig()
	cfg.LineRate = net.LinkRate()
	hs, hd := net.Hosts[0], net.Hosts[15]
	flow := func(id uint64, doneAt *sim.Time) *Sender {
		s := pool.NewSender(&dh[0], hd.ID, id, 0, 90_000, cfg)
		at := net.EL.Now() + net.MinPathDelay(0, 15)
		net.Defer(0, 15, at, s.Attach(Split{
			Dst: &dh[15], SrcPool: pool, DstPool: pool, At: at, RevPick: 5,
			OnCompleteAt: func(at sim.Time) { *doneAt = at },
		}), 0)
		s.Start()
		return s
	}
	var doneAt sim.Time
	s := flow(7, &doneAt)
	if s.Receiver() != nil {
		t.Fatal("the receiver attached before its command ran")
	}
	net.EL.RunUntil(sim.Millisecond)
	rc := s.Receiver()
	if rc == nil || !rc.Complete() || rc.Bytes != 90_000 || doneAt != rc.CompletedAt {
		t.Fatalf("receiver %+v, completion observed at %v", rc, doneAt)
	}
	revs := net.Paths(hd.ID, hs.ID)
	if want := int16(5 % revs); rc.route != want {
		t.Errorf("receiver sends CNPs on route %d, RevPick 5 selects %d", rc.route, want)
	}
	if dh[0].Flows.Len() != 0 || dh[15].Flows.Len() != 0 || !s.stopped || s.alphaTimer.Pending() || s.incTimer.Pending() {
		t.Error("teardown left the flow registered or the sender's timers running")
	}
	if want := int64(2); net.CommandEvents() != want {
		t.Errorf("%d commands emitted, want %d (attach, release)", net.CommandEvents(), want)
	}

	var doneAt2 sim.Time
	if s2 := flow(8, &doneAt2); s2 != s {
		t.Error("the retired sender was not reused")
	}
	net.EL.RunUntil(2 * sim.Millisecond)
	if s.Receiver() != rc || doneAt2 == 0 {
		t.Error("the retired receiver was not reused, or the second flow did not complete")
	}

	s.Attach(Split{Dst: &dh[15], At: net.EL.Now()}) // an attach still due at this instant
	defer func() {
		if msg, _ := recover().(string); msg != "dcqcn: sender recycled before its deferred receiver attach ran" {
			t.Errorf("recovered %q, want the recycle-before-attach panic", msg)
		}
	}()
	pool.NewSender(&dh[0], hd.ID, 9, 0, 90_000, cfg)
	t.Error("the sender was recycled under its pending attach")
}

// TestEndpointsFitTheirSizeClasses: every flow a pool misses allocates a
// Sender and a Receiver, each rounded up to the allocator's size class, and
// a pooled endpoint is copied whole on every recycle. The rate machine's
// parameters are constants, not Config fields each endpoint copies: the
// Sender fits the 320-byte class and the Receiver the 112-byte one.
func TestEndpointsFitTheirSizeClasses(t *testing.T) {
	if size := unsafe.Sizeof(Sender{}); size > 312 {
		t.Errorf("dcqcn.Sender is %d bytes, want at most 312", size)
	}
	if size := unsafe.Sizeof(Receiver{}); size > 112 {
		t.Errorf("dcqcn.Receiver is %d bytes, over the 112-byte size class", size)
	}
}
