package core

import (
	"testing"
	"unsafe"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// tableLens is the size of a stack's live-flow and time-wait tables.
func tableLens(st *Stack) [2]int { return [2]int{st.flows.Len(), st.timeWait.Len()} }

// TestPooledStateUnregistersOldFlow: once a completed flow is 2*MSL old, the
// next flow between the same hosts reuses its Sender and Receiver objects,
// and at that moment the old id leaves the live-flow table and the demux on
// both hosts and is pinned in time-wait forever.
func TestPooledStateUnregistersOldFlow(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	const oldFlow, newFlow = 1001, 1002
	sOld := st[0].Connect(st[15], 9000, FlowOpts{Flow: oldFlow})
	net.EL.RunUntil(200 * sim.Microsecond)
	rOld := st[15].Receiver(oldFlow)
	if !sOld.Complete() || rOld == nil || !rOld.Complete() {
		t.Fatal("first transfer did not complete")
	}
	if st[0].Sender(oldFlow) != sOld || st[0].demux.Handler(oldFlow) == nil || st[15].demux.Handler(oldFlow) == nil {
		t.Fatal("a completed flow stays registered until its state is reused")
	}
	if exp, ok := st[15].timeWait.Get(oldFlow); !ok || exp != rOld.CompletedAt+sim.Millisecond {
		t.Errorf("receiver time-wait expiry = %v, %v; want completion + MSL", exp, ok)
	}

	net.EL.RunUntil(3 * sim.Millisecond) // past completion + 2*MSL
	sNew := st[0].Connect(st[15], 9000, FlowOpts{Flow: newFlow})
	if sNew != sOld {
		t.Fatal("the quiescent sender was not reused")
	}
	net.EL.RunUntil(3*sim.Millisecond + 200*sim.Microsecond)
	if st[15].Receiver(newFlow) != rOld {
		t.Fatal("the quiescent receiver was not reused")
	}
	for _, h := range []int{0, 15} {
		if st[h].Sender(oldFlow) != nil || st[h].Receiver(oldFlow) != nil {
			t.Errorf("host %d still has live state for the reclaimed flow", h)
		}
		if st[h].demux.Handler(oldFlow) != nil {
			t.Errorf("host %d: reclaimed flow still registered in the demux", h)
		}
		if exp, ok := st[h].timeWait.Get(oldFlow); !ok || exp != sim.Infinity {
			t.Errorf("host %d: reclaimed flow's time-wait = %v, %v; want pinned forever", h, exp, ok)
		}
		// Live: the new flow. Time-wait: both ids.
		if got, want := tableLens(st[h]), [2]int{1, 2}; got != want {
			t.Errorf("host %d: table sizes (flows, time-wait) = %v, want %v", h, got, want)
		}
	}
}

// TestStrayPacketsDoNotGrowTables: a late SYN for a reclaimed flow is
// rejected and counted (at-most-once survives reclamation), a non-SYN packet
// for a flow nobody knows is unclaimed, and neither leaves a trace in any
// per-flow table.
func TestStrayPacketsDoNotGrowTables(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	st[0].Connect(st[15], 9000, FlowOpts{Flow: 1001})
	net.EL.RunUntil(3 * sim.Millisecond)
	st[0].Connect(st[15], 9000, FlowOpts{Flow: 1002}) // reuses and reclaims 1001
	net.EL.RunUntil(4 * sim.Millisecond)
	rx := st[15]
	before := tableLens(rx)
	a := fabric.AttachArena(net.EL)

	late := a.NewData(1001, 0, 15, 0, 9000)
	late.Flags |= fabric.FlagSYN
	rx.Host.Receive(late)
	if rx.DupRejected != 1 || rx.demux.Unclaimed != 1 {
		t.Errorf("late SYN for a reclaimed flow: DupRejected=%d Unclaimed=%d, want 1 and 1", rx.DupRejected, rx.demux.Unclaimed)
	}
	if rx.Receiver(1001) != nil {
		t.Error("late SYN resurrected a receiver for a reclaimed flow")
	}

	stray := a.NewData(4242, 0, 15, 40, 9000) // beyond IW: no SYN
	rx.Host.Receive(stray)
	if rx.DupRejected != 1 || rx.demux.Unclaimed != 2 {
		t.Errorf("stray non-SYN packet: DupRejected=%d Unclaimed=%d, want 1 and 2", rx.DupRejected, rx.demux.Unclaimed)
	}
	if after := tableLens(rx); after != before {
		t.Errorf("stray packets changed table sizes (flows, time-wait): %v -> %v", before, after)
	}
	if rx.demux.Handler(1001) != nil || rx.demux.Handler(4242) != nil {
		t.Error("a stray packet registered a demux handler")
	}
	closeNoLeak(t, net, st)
}

// TestRetiredListsStayChurnSized: the free-lists of retired endpoints hold
// what is waiting out its 2*MSL and nothing else, however long the churn
// runs. Every host keeps five one-packet connections going in a closed loop
// with a ~1 ms gap (the rpc scenario's shape, see
// scenario.TestChurnAllocsPerFlow), so about ten endpoints per host are
// always waiting and the lists never drain: a queue that reclaims its front
// only on draining grows without bound here.
func TestRetiredListsStayChurnSized(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	rnd := sim.NewRand(7)
	launched := 0
	var launch func(src int)
	launch = func(src int) {
		launched++
		dst := rnd.Intn(len(st) - 1)
		if dst >= src {
			dst++
		}
		st[src].Connect(st[dst], 1500, FlowOpts{OnReceiverDoneAt: func(sim.Time) {
			net.EL.After(sim.Millisecond/2+rnd.Duration(sim.Millisecond), func() { launch(src) })
		}})
	}
	for src := range st {
		for conn := 0; conn < 5; conn++ {
			launch(src)
		}
	}
	caps := func() (c [2]int) {
		for _, s := range st {
			c[0], c[1] = max(c[0], s.retiredS.Cap()), max(c[1], s.retiredR.Cap())
		}
		return c
	}
	const T = 20 * sim.Millisecond
	net.EL.RunUntil(T)
	atT, byT := caps(), launched
	t.Logf("capacities %v after %d flows", atT, byT)
	net.EL.RunUntil(3 * T)
	if at3T := caps(); at3T != atT {
		t.Errorf("free-list capacities (senders, receivers) grew with simulated time: %v at T, %v at 3T", atT, at3T)
	}
	if atT[0] == 0 || atT[0] > 64 || atT[1] == 0 || atT[1] > 64 {
		t.Errorf("free-list capacities %v: want a few slots per host", atT)
	}
	if byT < 1000 || launched < 3*byT-100 {
		t.Errorf("%d flows by T, %d by 3T: the loop did not churn steadily", byT, launched)
	}
}

// TestRecycleBeforeRegistrationPanics: a flow's receiver-side set-up travels
// as a command over the pooled Sender and is read on the destination's
// domain at the command's time, so the sender may not be handed to another
// flow before then. The 2*MSL quarantine guarantees it by a wide margin; the
// check is what turns that argument into a tested one.
func TestRecycleBeforeRegistrationPanics(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	s := st[0].Connect(st[15], 9000, FlowOpts{Flow: 1001})
	net.EL.RunUntil(3 * sim.Millisecond) // past completion + 2*MSL: reusable
	if !s.Complete() {
		t.Fatal("the transfer did not complete")
	}
	s.Registration(st[15], net.EL.Now()) // a registration still due at this instant
	defer func() {
		if msg, _ := recover().(string); msg != "core: sender recycled before its deferred registration ran" {
			t.Errorf("recovered %q, want the recycle-before-registration panic", msg)
		}
	}()
	st[0].Connect(st[15], 9000, FlowOpts{Flow: 1002})
	t.Error("the sender was recycled under its pending registration")
}

// TestSenderFitsItsSizeClass: the allocator rounds a Sender up to a size
// class, and the one above 512 bytes is 576 — one more word here is 64 more
// bytes per pooled sender, which is what alloc_mb_per_iter at perm-ndp sees.
func TestSenderFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Sender{}); size > 512 {
		t.Errorf("core.Sender is %d bytes, over the 512-byte size class", size)
	}
}
