package tcp

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// relaunch starts the next flow of a closed loop from the source host its
// argument names.
type relaunch func(src int)

func (f relaunch) OnEvent(src uint64) { f(int(src)) }

// churn starts a closed loop of pooled one-packet flows on every host: five
// connections each to random destinations, the next flow of a connection
// ~1 ms after its sender completed (core's churn, the rpc scenario's shape),
// each flow built as the harness builds it — its receiver attached by
// command, released by another. It returns the count of flows launched.
func churn(net *topo.FatTree, th []fabric.Endpoint, pool *Pool, cfg Config) *int {
	rnd := sim.NewRand(7)
	launched := new(int)
	var launch func(src int)
	launch = func(src int) {
		*launched++
		dst := rnd.Intn(len(th) - 1)
		if dst >= src {
			dst++
		}
		s := pool.NewSender(&th[src], &th[dst], uint64(*launched), 0, 1500, cfg)
		at := net.EL.Now() + net.MinPathDelay(src, dst)
		net.Defer(src, dst, at, s.Attach(ReceiverAttach{At: at, Pool: pool}), 0)
		s.OnComplete = func(*Sender) {
			net.EL.ScheduleAfter(sim.Millisecond/2+rnd.Duration(sim.Millisecond), relaunch(launch), uint64(src))
		}
		s.Start()
	}
	for src := range th {
		for conn := 0; conn < 5; conn++ {
			launch(src)
		}
	}
	return launched
}

// strays sums the hosts' stray counters.
func strays(th []fabric.Endpoint) (s fabric.Strays) {
	for i := range th {
		s.Data += th[i].Strays.Data
		s.Control += th[i].Strays.Control
	}
	return s
}

// TestLostFinalAckRecoversByRTO: the case a completed receiver stays in its
// table for. One flow's final ACK is dropped on its way back, so its sender
// recovers only by retransmitting after an RTO — longer than 2*MSL — and the
// receiver, complete since before the drop, must still be there to answer.
// Meanwhile the destination churns through flows from every other host, so
// a receiver released at its own completion would long since have been
// reused, and the retransmission would find no flow.
func TestLostFinalAckRecoversByRTO(t *testing.T) {
	net, th := tcpNet(4, 200*9000, 0)
	pool, cfg := NewPool(), DefaultConfig()
	cfg.MinRTO = 5 * sim.Millisecond
	const victim = 1 << 40 // above every id churn hands out
	var dropped sim.Time
	inner := net.Hosts[0].Stack
	net.Hosts[0].Stack = fabric.SinkFunc(func(p *fabric.Packet) {
		if p.Type == fabric.Ack && p.Flow == victim && p.AckNo == 1 && dropped == 0 {
			dropped = net.EL.Now()
			fabric.Free(p)
			return
		}
		inner.Receive(p)
	})
	launched := churn(net, th, pool, cfg)
	s := pool.NewSender(&th[0], &th[15], victim, 0, 1500, cfg)
	at := net.MinPathDelay(0, 15)
	net.Defer(0, 15, at, s.Attach(ReceiverAttach{At: at, Pool: pool}), 0)
	var doneAt sim.Time
	var timeouts int64
	s.OnComplete = func(s *Sender) { doneAt, timeouts = s.CompletedAt, s.Timeouts } // the pool reuses s after
	s.Start()

	net.EL.RunUntil(30 * sim.Millisecond)
	if dropped == 0 {
		t.Fatal("the final ACK was never sent")
	}
	if doneAt == 0 || timeouts == 0 || doneAt-dropped <= 2*fabric.MSL {
		t.Fatalf("sender completed at %v after %d timeouts; final ACK dropped at %v: want recovery by RTO more than 2*MSL later",
			doneAt, timeouts, dropped)
	}
	if *launched < 1000 {
		t.Errorf("only %d flows churned: the pool had little to reuse", *launched)
	}
	if st := strays(th); st.Data != 0 {
		t.Errorf("%d stray data packets: a receiver left its table while its sender could still send", st.Data)
	}
}

// TestFlowStateStaysChurnSized is core's test of the same name for the TCP
// family: under a closed loop every host's table has the capacity at 3T it
// had at T, because a flow leaves it on both hosts — the sender's entry when
// the pool reuses it, the receiver's at the flow's Release — and nothing of
// it is kept. A receiver kept for the rest of the run (the tombstone this
// replaced) shows here as a doubling. No data packet is ever a stray: no
// receiver is released while its sender can still send.
func TestFlowStateStaysChurnSized(t *testing.T) {
	net, th := tcpNet(4, 200*9000, 0)
	cfg := DefaultConfig()
	launched := churn(net, th, NewPool(), cfg)
	caps := func() []int {
		c := make([]int, len(th))
		for i := range th {
			c[i] = th[i].Flows.Cap()
		}
		return c
	}
	const T = 20 * sim.Millisecond
	net.EL.RunUntil(T)
	atT, byT := caps(), *launched
	t.Logf("flow table capacity per host %v after %d flows", atT, byT)
	net.EL.RunUntil(3 * T)
	at3T := caps()
	for h := range th {
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
	if st := strays(th); st.Data != 0 {
		t.Errorf("%d stray data packets: a receiver left its table while its sender could still send", st.Data)
	}
}
