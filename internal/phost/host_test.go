package phost

import (
	"maps"
	"slices"
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// relaunch starts the next flow of a closed loop from the source host its
// argument names.
type relaunch func(src int)

func (f relaunch) OnEvent(src uint64) { f(int(src)) }

// churn starts a closed loop of one-packet flows on every host: five
// connections each to random destinations, the next flow of a connection
// ~1 ms after its sender completed (core's churn, the rpc scenario's
// shape). It returns the count of flows launched.
func churn(net *topo.FatTree, ph []Host) *int {
	rnd := sim.NewRand(7)
	launched := new(int)
	var launch func(src int)
	launch = func(src int) {
		*launched++
		dst := rnd.Intn(len(ph) - 1)
		if dst >= src {
			dst++
		}
		ph[src].Connect(&ph[dst], uint64(*launched), 1500, func(*Sender) {
			net.EL.ScheduleAfter(sim.Millisecond/2+rnd.Duration(sim.Millisecond), relaunch(launch), uint64(src))
		})
	}
	for src := range ph {
		for conn := 0; conn < 5; conn++ {
			launch(src)
		}
	}
	return launched
}

// countReceivers makes every host count each flow's receiver completions:
// a flow whose receiver completes twice had it opened again by a late
// packet after its release.
func countReceivers(ph []Host) map[uint64]int {
	done := make(map[uint64]int)
	for i := range ph {
		ph[i].Listen(func(r *Receiver) { done[r.Flow]++ })
	}
	return done
}

// TestLostFinalAckRecoversByRTO: the case a completed receiver stays in its
// table for. One flow's only ACK is dropped on its way back, so its sender
// recovers only by retransmitting after an RTO — here longer than 2*MSL —
// and the receiver, complete since before the drop, must still be there to
// answer it. Meanwhile every host churns flows, so a receiver released at
// its own completion would long since have been reused, and the
// retransmission would open the flow a second time.
func TestLostFinalAckRecoversByRTO(t *testing.T) {
	net, ph := phostNet(4)
	cfg := DefaultConfig()
	cfg.RTO = 5 * sim.Millisecond
	for i, h := range net.Hosts {
		ph[i].Init(h, net, cfg)
	}
	done := countReceivers(ph)
	const victim = 1 << 40 // above every id churn hands out
	var dropped sim.Time
	inner := net.Hosts[0].Stack
	net.Hosts[0].Stack = fabric.SinkFunc(func(p *fabric.Packet) {
		if p.Type == fabric.Ack && p.Flow == victim && dropped == 0 {
			dropped = net.EL.Now()
			fabric.Free(p)
			return
		}
		inner.Receive(p)
	})
	launched := churn(net, ph)
	var doneAt sim.Time
	var rtx int64
	ph[0].Connect(&ph[15], victim, 1500, func(s *Sender) { doneAt, rtx = s.CompletedAt, s.Rtx })

	net.EL.RunUntil(30 * sim.Millisecond)
	if dropped == 0 {
		t.Fatal("the ACK was never sent")
	}
	if doneAt == 0 || rtx == 0 || doneAt-dropped <= 2*fabric.MSL {
		t.Fatalf("sender completed at %v after %d retransmissions; ACK dropped at %v: want recovery by RTO more than 2*MSL later",
			doneAt, rtx, dropped)
	}
	if done[victim] != 1 {
		t.Errorf("the flow's receiver completed %d times, want once", done[victim])
	}
	if *launched < 1000 {
		t.Errorf("only %d flows churned: the free-lists had little to reuse", *launched)
	}
}

// TestFlowStateStaysChurnSized is core's test of the same name for pHost:
// under a closed loop every host's table has the capacity at 3T it had at
// T, because a flow leaves it on both hosts — the sender's entry when its
// state is reused, the receiver's at the flow's Release — and nothing of it
// is kept. A receiver kept for the rest of the run (the tombstone this
// replaced) shows here as a doubling. No receiver is opened twice: none is
// released while its sender can still send.
func TestFlowStateStaysChurnSized(t *testing.T) {
	net, ph := phostNet(4)
	done := countReceivers(ph)
	launched := churn(net, ph)
	caps := func() []int {
		c := make([]int, len(ph))
		for i := range ph {
			c[i] = ph[i].Flows.Cap()
		}
		return c
	}
	const T = 20 * sim.Millisecond
	net.EL.RunUntil(T)
	atT, byT := caps(), *launched
	t.Logf("flow table capacity per host %v after %d flows", atT, byT)
	net.EL.RunUntil(3 * T)
	at3T := caps()
	for h := range ph {
		if at3T[h] != atT[h] {
			t.Errorf("host %d: flow table capacity grew with simulated time: %d at T, %d at 3T", h, atT[h], at3T[h])
		}
		if atT[h] > 128 {
			t.Errorf("host %d: flow table capacity %d: want room for a few dozen flows", h, atT[h])
		}
	}
	if byT < 1000 || *launched < 3*byT-100 {
		t.Errorf("%d flows by T, %d by 3T: the loop did not churn steadily", byT, *launched)
	}
	for _, flow := range slices.Sorted(maps.Keys(done)) {
		if n := done[flow]; n != 1 {
			t.Errorf("flow %d: its receiver completed %d times", flow, n)
		}
	}
}
