package core

import (
	"testing"
	"testing/quick"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// ndpNet builds a FatTree with NDP switch queues and an NDP stack on every
// host, all listening.
func ndpNet(k int, scfg SwitchConfig, ccfg Config) (*topo.FatTree, []*Stack) {
	cfg := topo.Config{Seed: 42}
	cfg.SwitchQueue = QueueFactory(scfg, 4242)
	net := topo.NewFatTree(k, cfg)
	WireBounce(net.Switches)
	stacks := make([]*Stack, net.NumHosts())
	for i, h := range net.Hosts {
		ccfg := ccfg
		ccfg.Seed = uint64(i) + 1
		stacks[i] = NewStack(h, func(dst int32) [][]int16 { return net.Paths(h.ID, dst) }, ccfg)
		stacks[i].Listen(nil)
	}
	return net, stacks
}

// closeNoLeak tears the network down and fails the test when a packet is
// still outstanding.
func closeNoLeak(t *testing.T, net *topo.FatTree, st []*Stack) {
	t.Helper()
	for _, s := range st {
		s.Close()
	}
	net.Close()
	if n := net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
}

func TestSingleTransferCompletes(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	var fct sim.Time
	done := false
	st[0].Connect(st[15], 90_000, FlowOpts{OnReceiverDone: func(r *Receiver) {
		done = true
		fct = r.CompletedAt
		if r.Bytes() != 90_000 {
			t.Errorf("received %d bytes, want 90000", r.Bytes())
		}
	}})
	net.EL.RunUntil(50 * sim.Millisecond)
	if !done {
		t.Fatal("transfer did not complete")
	}
	// 10 packets of 9KB over 6 store-and-forward hops: first packet needs
	// ~46us, the rest pipeline behind it. Anything under ~200us is sane.
	if fct > 200*sim.Microsecond {
		t.Errorf("FCT = %v, too slow for an idle network", fct)
	}
}

func TestZeroRTTFirstPacket(t *testing.T) {
	// NDP has no handshake: data must arrive after exactly the one-way
	// path latency (6 hops x (7.2us + 500ns) for the first 9KB packet).
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	var firstArrival sim.Time
	st[0].Connect(st[15], 9000, FlowOpts{OnReceiverDone: func(r *Receiver) {
		firstArrival = r.FirstArrival
	}})
	net.EL.RunUntil(10 * sim.Millisecond)
	want := 6 * (7200*sim.Nanosecond + 500*sim.Nanosecond)
	if firstArrival != want {
		t.Errorf("first data arrived at %v, want %v (zero-RTT)", firstArrival, want)
	}
}

func TestConnectionFromAnyFirstWindowPacket(t *testing.T) {
	// Deliver packet seq=5 (SYN set, as all first-window packets) before
	// seq=0: receiver state must be created and the packet NACK/ACKed.
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	p := fabric.AttachArena(net.EL).NewData(777, 15, 0, 5, 9000)
	p.Flags |= fabric.FlagSYN
	p.Sent = net.EL.Now()
	st[0].Host.Receive(p)
	net.EL.RunUntil(sim.Millisecond)
	r := st[0].Receiver(777)
	if r == nil {
		t.Fatal("no receiver created from out-of-order first-window packet")
	}
	if r.Bytes() != 9000 {
		t.Errorf("receiver bytes = %d, want 9000", r.Bytes())
	}
	closeNoLeak(t, net, st)
}

func TestNonSYNUnknownPacketRejected(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	p := fabric.AttachArena(net.EL).NewData(888, 15, 0, 40, 9000) // beyond IW: no SYN
	st[0].Host.Receive(p)
	net.EL.RunUntil(sim.Millisecond)
	if st[0].Receiver(888) != nil {
		t.Fatal("receiver created from packet without SYN")
	}
	closeNoLeak(t, net, st)
}

func TestTimeWaitRejectsDuplicateConnection(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	st[0].Connect(st[15], 9000, FlowOpts{Flow: 555})
	net.EL.RunUntil(200 * sim.Microsecond) // transfer done, still within MSL
	if got := st[15].DupRejected; got != 0 {
		t.Fatalf("unexpected rejections before duplicate: %d", got)
	}
	// Simulate a duplicate connection attempt with the same id arriving
	// within the MSL. The receiver side must reject it (at-most-once).
	st[15].demux.Unregister(555) // original receiver state closed
	dup := fabric.AttachArena(net.EL).NewData(555, 0, 15, 0, 9000)
	dup.Flags |= fabric.FlagSYN
	st[15].Host.Receive(dup)
	net.EL.RunUntil(300 * sim.Microsecond)
	if st[15].DupRejected != 1 {
		t.Errorf("duplicate connection not rejected (DupRejected=%d)", st[15].DupRejected)
	}
	closeNoLeak(t, net, st)
}

// Figure 3: nine senders push their first windows simultaneously through a
// ToR with an 8-packet queue. Overflow packets are trimmed; each NACK must
// elicit a retransmission that arrives long before an RTO would fire, so
// the receiver's link stays busy and the incast completes near the
// lossless-equivalent time.
func TestFig3TrimNackRetransmitBeforeDrain(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	// Receiver host 0; senders 1..9 (mix of racks/pods), 3 packets each so
	// the converging burst exceeds the 8-packet queue.
	dones := 0
	var last sim.Time
	for i := 1; i <= 9; i++ {
		st[i].Connect(st[0], 27_000, FlowOpts{OnReceiverDone: func(r *Receiver) {
			dones++
			if r.CompletedAt > last {
				last = r.CompletedAt
			}
		}})
	}
	net.EL.RunUntil(20 * sim.Millisecond)
	if dones != 9 {
		t.Fatalf("only %d/9 transfers completed", dones)
	}
	// Lossless-equivalent bound: the last-hop link must serialize 27 x 9KB
	// = 194us; allow modest slack for the staggered start and the
	// retransmissions' fresh traversals, but far less than an RTO (1ms).
	if last > 500*sim.Microsecond {
		t.Errorf("last arrival %v: retransmissions did not happen promptly", last)
	}
	stats := net.CollectStats()
	if stats.Trims == 0 {
		t.Error("expected at least one trim in a 9-into-8-queue incast")
	}
	if stats.Drops != 0 {
		t.Errorf("NDP should be lossless for metadata here; %d drops", stats.Drops)
	}
}

func TestIncast50to1(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	// 15 senders (all other hosts) x 90KB to host 0, plus repeat senders to
	// stress: use 45 flows total, 3 per sender.
	const flowSize = 90_000
	total := 0
	var last sim.Time
	for rep := 0; rep < 3; rep++ {
		for i := 1; i < 16; i++ {
			st[i].Connect(st[0], flowSize, FlowOpts{OnReceiverDone: func(r *Receiver) {
				total++
				if r.CompletedAt > last {
					last = r.CompletedAt
				}
			}})
		}
	}
	net.EL.RunUntil(100 * sim.Millisecond)
	if total != 45 {
		t.Fatalf("%d/45 incast flows completed", total)
	}
	// Optimal: 45 x 90KB = 4.05MB at 10Gb/s = 3.24ms. Allow 25% overhead.
	optimal := sim.FromSeconds(45 * flowSize * 8 / 10e9)
	if last > optimal*5/4 {
		t.Errorf("incast completion %v, optimal %v: overhead too high", last, optimal)
	}
	if net.CollectStats().Drops != 0 {
		t.Errorf("drops = %d, want 0 (metadata lossless)", net.CollectStats().Drops)
	}
}

func TestReceiverPrioritization(t *testing.T) {
	run := func(prio bool) sim.Time {
		net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
		var fct sim.Time
		// Six long flows to host 0.
		for i := 1; i <= 6; i++ {
			st[i].Connect(st[0], 1_800_000, FlowOpts{})
		}
		// One short flow, possibly prioritized.
		st[7].Connect(st[0], 200_000, FlowOpts{
			Priority:       prio,
			OnReceiverDone: func(r *Receiver) { fct = r.CompletedAt },
		})
		net.EL.RunUntil(50 * sim.Millisecond)
		if fct == 0 {
			t.Fatalf("short flow (prio=%v) did not complete", prio)
		}
		return fct
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("prioritized FCT %v not better than unprioritized %v", with, without)
	}
	// Paper: priority brings the short flow within ~50us of idle; without
	// priority it is hundreds of microseconds slower.
	if without-with < 100*sim.Microsecond {
		t.Errorf("prioritization gain only %v", without-with)
	}
}

func TestFairSharingTwoSenders(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	const size = 1_800_000 // 200 packets each
	var fcts []sim.Time
	for _, src := range []int{1, 2} {
		st[src].Connect(st[0], size, FlowOpts{OnReceiverDone: func(r *Receiver) {
			fcts = append(fcts, r.CompletedAt)
		}})
	}
	net.EL.RunUntil(50 * sim.Millisecond)
	if len(fcts) != 2 {
		t.Fatalf("%d/2 flows completed", len(fcts))
	}
	// Fair sharing: both finish within ~10% of each other.
	a, b := fcts[0], fcts[1]
	if a > b {
		a, b = b, a
	}
	if float64(b-a) > 0.1*float64(b) {
		t.Errorf("unfair completion: %v vs %v", fcts[0], fcts[1])
	}
}

func TestPullPacingMatchesLinkRate(t *testing.T) {
	// A single large flow: after the first window, data packets must
	// arrive at the receiver roughly one per MTU serialization time.
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	var arrivals []sim.Time
	r0 := st[0]
	orig := r0.Host.Stack
	r0.Host.Stack = fabric.SinkFunc(func(p *fabric.Packet) {
		if p.Type == fabric.Data && !p.Trimmed() {
			arrivals = append(arrivals, net.EL.Now())
		}
		orig.Receive(p)
	})
	st[15].Connect(st[0], 1_800_000, FlowOpts{})
	net.EL.RunUntil(50 * sim.Millisecond)
	if len(arrivals) < 100 {
		t.Fatalf("only %d data arrivals", len(arrivals))
	}
	// Steady state (skip the pushed first window): inter-arrival close to
	// 7.2us (the 9064B pull spacing gives ~7.25us).
	var sum sim.Time
	n := 0
	for i := 50; i < len(arrivals); i++ {
		sum += arrivals[i] - arrivals[i-1]
		n++
	}
	mean := sum / sim.Time(n)
	if mean < 7*sim.Microsecond || mean > 8*sim.Microsecond {
		t.Errorf("mean inter-arrival %v, want ~7.2-7.3us", mean)
	}
}

func TestBounceRecoveryUnderExtremeIncast(t *testing.T) {
	// Tiny header queues force return-to-sender; the transfer must still
	// complete without waiting for RTOs in the common case.
	scfg := DefaultSwitchConfig(9000)
	scfg.HeaderCapBytes = 8 * fabric.HeaderSize
	net, st := ndpNet(4, scfg, DefaultConfig())
	done := 0
	var senders []*Sender
	for i := 1; i < 16; i++ {
		senders = append(senders, st[i].Connect(st[0], 270_000, FlowOpts{OnReceiverDone: func(r *Receiver) { done++ }}))
	}
	net.EL.RunUntil(200 * sim.Millisecond)
	if done != 15 {
		t.Fatalf("%d/15 flows completed under bounce pressure", done)
	}
	var bounces int64
	for _, s := range senders {
		bounces += s.BouncesSeen
	}
	if bounces == 0 {
		t.Error("expected return-to-sender events with 8-header queues")
	}
}

func TestRTOBackstopWhenBounceDisabled(t *testing.T) {
	scfg := DefaultSwitchConfig(9000)
	scfg.HeaderCapBytes = 4 * fabric.HeaderSize
	scfg.DisableBounce = true // headers beyond 4 are silently lost
	net, st := ndpNet(4, scfg, DefaultConfig())
	done := 0
	var senders []*Sender
	for i := 1; i < 16; i++ {
		senders = append(senders, st[i].Connect(st[0], 90_000, FlowOpts{OnReceiverDone: func(r *Receiver) { done++ }}))
	}
	net.EL.RunUntil(500 * sim.Millisecond)
	if done != 15 {
		t.Fatalf("%d/15 flows completed; RTO backstop failed", done)
	}
	var timeouts int64
	for _, s := range senders {
		timeouts += s.RtxFromTimeout
	}
	if timeouts == 0 {
		t.Error("expected RTO retransmissions with bounce disabled and tiny header queues")
	}
}

func TestZeroByteTransfer(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	done := false
	st[0].Connect(st[15], 0, FlowOpts{OnReceiverDone: func(r *Receiver) { done = true }})
	net.EL.RunUntil(10 * sim.Millisecond)
	if !done {
		t.Fatal("zero-byte transfer (bare FIN) did not complete")
	}
}

// Property: transfers of arbitrary sizes deliver exactly the right number of
// bytes, for single flows and small incasts.
func TestTransferSizesProperty(t *testing.T) {
	prop := func(sizeRaw uint32, senders uint8) bool {
		size := int64(sizeRaw%500_000) + 1
		n := int(senders%5) + 1
		net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
		done := 0
		ok := true
		for i := 1; i <= n; i++ {
			st[i].Connect(st[0], size, FlowOpts{OnReceiverDone: func(r *Receiver) {
				done++
				if r.Bytes() != size {
					ok = false
				}
			}})
		}
		net.EL.RunUntil(500 * sim.Millisecond)
		return ok && done == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSenderCompletionAndTelemetry(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	var snd *Sender
	sDone := false
	snd = st[0].Connect(st[15], 45_000, FlowOpts{OnSenderDone: func(s *Sender) { sDone = true }})
	net.EL.RunUntil(10 * sim.Millisecond)
	if !sDone || !snd.Complete() {
		t.Fatal("sender did not complete")
	}
	if snd.AckedBytes() != 45_000 {
		t.Errorf("acked bytes = %d, want 45000", snd.AckedBytes())
	}
	if snd.TotalPackets() != 5 {
		t.Errorf("total packets = %d, want 5", snd.TotalPackets())
	}
	if snd.PacketsSent < 5 {
		t.Errorf("packets sent = %d, want >= 5", snd.PacketsSent)
	}
}

func TestUnboundedFlowKeepsStreaming(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	s := st[0].Connect(st[15], -1, FlowOpts{})
	net.EL.RunUntil(10 * sim.Millisecond)
	// 10ms at ~10Gb/s is ~12.5MB; require at least 80% of line rate.
	if s.AckedBytes() < 10_000_000 {
		t.Errorf("unbounded flow acked only %d bytes in 10ms", s.AckedBytes())
	}
	if s.Complete() {
		t.Error("unbounded flow must never complete")
	}
}
