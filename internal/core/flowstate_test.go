package core

import (
	"reflect"
	"testing"
	"unsafe"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// tables is the size of a stack's per-flow state: the flows its one flow
// table holds, and the slots it has allocated.
func tables(st *Stack) [2]int { return [2]int{st.Flows.Len(), st.Flows.Cap()} }

// TestPooledStateUnregistersOldFlow: once a completed flow is 2*MSL old,
// its release has taken the old id out of the receiving host's table, and
// the next flow between the same hosts reuses its Sender and Receiver
// objects, which takes the id out of the sending host's: nothing is left
// behind.
func TestPooledStateUnregistersOldFlow(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	const oldFlow, newFlow = 1001, 1002
	sOld := st[0].Connect(st[15], 9000, FlowOpts{Flow: oldFlow})
	net.EL.RunUntil(200 * sim.Microsecond)
	rOld := st[15].Receiver(oldFlow)
	if !sOld.Complete() || rOld == nil || !rOld.Complete() {
		t.Fatal("first transfer did not complete")
	}
	if st[0].Sender(oldFlow) != sOld {
		t.Fatal("a completed flow stays registered until its state is reused")
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
		if n := st[h].Flows.Len(); n != 1 {
			t.Errorf("host %d holds %d flows, want only the new one", h, n)
		}
	}
}

// TestStrayPacketsDoNotGrowTables: a late SYN for a released flow finds no
// entry and is a stray (at-most-once survives the release), as is a SYN for
// a flow no sender attached here and a non-SYN packet for a flow nobody
// knows; none of them leaves a trace in any per-flow table.
func TestStrayPacketsDoNotGrowTables(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	st[0].Connect(st[15], 9000, FlowOpts{Flow: 1001})
	net.EL.RunUntil(3 * sim.Millisecond)
	st[0].Connect(st[15], 9000, FlowOpts{Flow: 1002}) // reuses 1001's state
	net.EL.RunUntil(4 * sim.Millisecond)
	rx := st[15]
	before := tables(rx)
	a := fabric.AttachArena(net.EL)

	for i, p := range []*fabric.Packet{
		a.NewData(1001, 0, 15, 0, 9000),  // late SYN for the released flow
		a.NewData(4343, 0, 15, 0, 9000),  // SYN for a flow never attached
		a.NewData(4242, 0, 15, 40, 9000), // beyond IW: no SYN
	} {
		if p.Seq == 0 {
			p.Flags |= fabric.FlagSYN
		}
		rx.Host.Receive(p)
		if strays(rx) != int64(i+1) || rx.Receiver(p.Flow) != nil {
			t.Errorf("stray %d (flow %d, seq %d): strays=%d, receiver %v: want it a stray, with no state",
				i, p.Flow, p.Seq, strays(rx), rx.Receiver(p.Flow) != nil)
		}
	}
	if after := tables(rx); after != before {
		t.Errorf("stray packets changed the flow table (flows, slots): %v -> %v", before, after)
	}
	closeNoLeak(t, net, st)
}

// TestLostFinalAckRecoversByRTO is tcp's test of the same name for NDP: the
// case a completed receiver stays in its table for. One flow's final ACK is
// dropped on its way back, drops times in a row, so its sender recovers
// only by retransmitting after its RTOs, more than 2*MSL after the first
// drop, and the receiver, complete since before that drop, must still be
// there to answer. Meanwhile every host churns flows, so a receiver
// released 2*MSL after its own completion would have been reused by then,
// and each retransmission would find no flow: a stray data packet, and a
// sender that never completes.
func TestLostFinalAckRecoversByRTO(t *testing.T) {
	for _, tc := range []struct {
		name  string
		drops int
		rto   sim.Time
	}{
		{"default", 4, DefaultConfig().RTO},
		{"rto5ms", 1, 5 * sim.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.RTO = tc.rto
			net, st := ndpNet(4, DefaultSwitchConfig(9000), cfg)
			const victim = 1 << 40 // above every id churn hands out
			dropped, first := 0, sim.Time(0)
			inner := net.Hosts[0].Stack
			net.Hosts[0].Stack = fabric.SinkFunc(func(p *fabric.Packet) {
				if p.Type == fabric.Ack && p.Flow == victim && dropped < tc.drops {
					if dropped == 0 {
						first = net.EL.Now()
					}
					dropped++
					fabric.Free(p)
					return
				}
				inner.Receive(p)
			})
			l := churn(net, st)
			var doneAt sim.Time
			st[0].Connect(st[15], 1500, FlowOpts{Flow: victim, OnSenderDone: func(s *Sender) { doneAt = s.CompletedAt }})

			net.EL.RunUntil(60 * sim.Millisecond)
			if dropped != tc.drops {
				t.Fatalf("%d final ACKs dropped, want %d", dropped, tc.drops)
			}
			if doneAt == 0 || doneAt-first <= 2*fabric.MSL {
				t.Fatalf("sender completed at %v; first final ACK dropped at %v: want recovery by RTO more than 2*MSL later",
					doneAt, first)
			}
			if l.launched < 1000 {
				t.Errorf("only %d flows churned: the free-lists had little to reuse", l.launched)
			}
			for h, x := range st {
				if x.Strays.Data != 0 {
					t.Errorf("host %d: %d stray data packets: a receiver left its table while its sender could still send", h, x.Strays.Data)
				}
			}
		})
	}
}

// relaunch starts the next flow of a closed loop from the source host its
// argument names.
type relaunch func(src int)

func (f relaunch) OnEvent(src uint64) { f(int(src)) }

// loop is a closed loop's bookkeeping: the flows launched so far, and per
// host the flows it has live as sender (until its sender completes) and as
// receiver (from the flow's launch until its receiver completes), and the
// most of each it has had live at once. Once stopped it launches no more.
type loop struct {
	launched   int
	live, peak [][2]int
	stopped    bool
}

const asSender, asReceiver = 0, 1

func (l *loop) add(h, kind, n int) {
	l.live[h][kind] += n
	l.peak[h][kind] = max(l.peak[h][kind], l.live[h][kind])
}

// churn starts a closed loop on every host: five one-packet connections
// each, the next flow of a connection ~1 ms after the last completed (the
// rpc scenario's shape, see scenario.TestChurnAllocsPerFlow). About ten
// endpoints per host are therefore always waiting out their 2*MSL, and the
// retired lists never drain.
func churn(net *topo.FatTree, st []*Stack) *loop {
	rnd := sim.NewRand(7)
	l := &loop{live: make([][2]int, len(st)), peak: make([][2]int, len(st))}
	var launch func(src int)
	launch = func(src int) {
		if l.stopped {
			return
		}
		l.launched++
		dst := rnd.Intn(len(st) - 1)
		if dst >= src {
			dst++
		}
		l.add(src, asSender, 1)
		l.add(dst, asReceiver, 1)
		st[src].Connect(st[dst], 1500, FlowOpts{
			OnSenderDone: func(*Sender) { l.add(src, asSender, -1) },
			OnReceiverDoneAt: func(sim.Time) {
				l.add(dst, asReceiver, -1)
				net.EL.ScheduleAfter(sim.Millisecond/2+rnd.Duration(sim.Millisecond), relaunch(launch), uint64(src))
			}})
	}
	for src := range st {
		for conn := 0; conn < 5; conn++ {
			launch(src)
		}
	}
	return l
}

// churnT is how long a churn test runs before its first look; it looks
// again at 3*churnT.
const churnT = 20 * sim.Millisecond

// checkChurned fails the test unless the loop ran steadily: a thousand flows
// by churnT, and about three times as many by 3*churnT.
func checkChurned(t *testing.T, byT, by3T int) {
	t.Helper()
	if byT < 1000 || by3T < 3*byT-100 {
		t.Errorf("%d flows by T, %d by 3T: the loop did not churn steadily", byT, by3T)
	}
}

// TestRetiredListsStayChurnSized: the free-lists of retired endpoints hold
// what is waiting out its 2*MSL and nothing else, however long the churn
// runs. The lists never drain, so a queue that reclaims its front only on
// draining grows without bound here. And what waits out its 2*MSL is a flow's
// identity, not its buffers: no retired Sender or Receiver holds an array.
// Every endpoint retired when the churn stops is checked, once the
// stopped loop's last flows are done and 2*MSL old, so every one is ready.
func TestRetiredListsStayChurnSized(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	l := churn(net, st)
	caps := func() (c [2]int) {
		for _, s := range st {
			c[0], c[1] = max(c[0], s.retiredS.Cap()), max(c[1], s.retiredR.Cap())
		}
		return c
	}
	net.EL.RunUntil(churnT)
	atT, byT := caps(), l.launched
	t.Logf("capacities %v after %d flows", atT, byT)
	net.EL.RunUntil(3 * churnT)
	if at3T := caps(); at3T != atT {
		t.Errorf("free-list capacities (senders, receivers) grew with simulated time: %v at T, %v at 3T", atT, at3T)
	}
	if atT[0] == 0 || atT[0] > 64 || atT[1] == 0 || atT[1] > 64 {
		t.Errorf("free-list capacities %v: want a few slots per host", atT)
	}
	checkChurned(t, byT, l.launched)
	l.stopped = true
	net.EL.RunUntil(3*churnT + 5*fabric.MSL)
	retired := 0
	for h, x := range st {
		for s, ok := x.retiredS.Take(net.EL); ok; s, ok = x.retiredS.Take(net.EL) {
			retired++
			if s.pkts.Cap() != 0 || s.rtxq.Cap() != 0 || s.perm != nil || s.pstats != nil {
				t.Fatalf("host %d: retired sender of flow %#x holds a buffer", h, s.Flow)
			}
		}
		for r, ok := x.retiredR.Take(net.EL); ok; r, ok = x.retiredR.Take(net.EL) {
			retired++
			if r.got.Cap() != 0 {
				t.Fatalf("host %d: retired receiver of flow %#x holds a buffer", h, r.Flow)
			}
		}
		if n := x.retiredS.Len() + x.retiredR.Len(); n != 0 {
			t.Errorf("host %d: %d retired endpoints still not ready 5*MSL after the churn stopped", h, n)
		}
	}
	if retired == 0 {
		t.Error("no retired endpoint to check")
	}
}

// TestFlowStateStaysChurnSized: a host's flow table follows the flows in
// flight, not the flows ever run. Under the same closed loop every stack's
// table has the capacity at 3T it had at T: a completed flow leaves it when
// its release or its reuse takes it out, and no mark of it is kept
// anywhere, so an id pinned forever (the time-wait table this replaced grew
// by one entry a flow) shows here as a doubling. Every entry is one end of
// its flow, a sender or a receiver. And the spare arrays follow the flows
// in flight too: no spare list is longer than the most flows of its kind
// its host has had live at once.
func TestFlowStateStaysChurnSized(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	l := churn(net, st)
	checkSpare := func(when string) {
		t.Helper()
		spare := 0
		for h, x := range st {
			if n := [2]int{len(x.spareS), len(x.spareR)}; n[0] > l.peak[h][asSender] || n[1] > l.peak[h][asReceiver] {
				t.Errorf("%s: host %d: %v spare (senders, receivers), but at most %v live at once", when, h, n, l.peak[h])
			}
			spare += len(x.spareS) + len(x.spareR)
		}
		if spare == 0 {
			t.Errorf("%s: no spare list to check", when)
		}
	}
	caps := func() []int {
		c := make([]int, len(st))
		for i, s := range st {
			c[i] = s.Flows.Cap()
		}
		return c
	}
	net.EL.RunUntil(churnT)
	atT, byT := caps(), l.launched
	t.Logf("flow table capacity per host %v after %d flows", atT, byT)
	checkSpare("T")
	net.EL.RunUntil(3 * churnT)
	checkSpare("3T")
	at3T := caps()
	for h := range st {
		if at3T[h] != atT[h] {
			t.Errorf("host %d: flow table capacity grew with simulated time: %d at T, %d at 3T", h, atT[h], at3T[h])
		}
		if atT[h] > 128 {
			t.Errorf("host %d: flow table capacity %d: want room for a few dozen flows", h, atT[h])
		}
	}
	// Every id Connect allocated, looked up on every host.
	open := 0
	for _, src := range st {
		for c := uint64(1); c <= uint64(src.connects); c++ {
			flow := uint64(src.Host.ID+1)<<32 | c
			for h, s := range st {
				switch e, ok := s.Flows.Get(flow); e.(type) {
				case *Receiver:
					open++
				case *Sender:
				default:
					if ok {
						t.Errorf("host %d: flow %#x has an entry %T, neither sender nor receiver", h, flow, e)
					}
				}
			}
		}
	}
	if open == 0 {
		t.Error("no open receiver to check")
	}
	checkChurned(t, byT, l.launched)
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

// TestFlowEntrySize: a flow table slot is the flow id and the one Sink of
// this host's end of the flow, 24 bytes (32 while an entry was a sender, a
// receiver and a registration pointer). Every flow a host holds costs one,
// and a table at most 3/4 full has a third more slots than flows, so each
// word here is paid per flow in flight on every host.
func TestFlowEntrySize(t *testing.T) {
	slots, _ := reflect.TypeOf(Stack{}.Flows).FieldByName("slots")
	if size := slots.Type.Elem().Size(); size != 24 {
		t.Errorf("a core.Stack flow table slot is %d bytes, want 24", size)
	}
}

// TestSenderFitsItsSizeClass: the allocator rounds a Sender up to a size
// class, and the one above 480 bytes is 512 — one more word here is 32 more
// bytes per pooled sender, which is what alloc_mb_per_iter at perm-ndp sees.
func TestSenderFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Sender{}); size > 480 {
		t.Errorf("core.Sender is %d bytes, over the 480-byte size class", size)
	}
}

// TestStackFitsItsSizeClass: every host allocates one Stack, 440 bytes
// rounded up to the allocator's 448-byte size class; the one above is 480,
// which a workload that never completes a flow pays for and gains nothing
// by. The check holds the stack at 440, so a word added here is paid for by
// one taken out.
func TestStackFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Stack{}); size > 440 {
		t.Errorf("core.Stack is %d bytes, over its 440-byte budget", size)
	}
}
