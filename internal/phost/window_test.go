package phost

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// endlessSize is how the harness asks pHost for an unbounded flow.
const endlessSize = 1 << 40

// TestScoreboardStaysWindowSized: two unbounded senders into one host over
// 8-packet drop-tail queues (silent losses, RTO recovery throughout) end ten
// times the run with the scoreboards and arrival bitmaps they had after
// one, and the last six tenths allocate nothing.
func TestScoreboardStaysWindowSized(t *testing.T) {
	net, ph := phostNet(4)
	var rs []*Receiver
	ss := []*Sender{ph[5].Connect(0, 1, endlessSize, nil), ph[10].Connect(0, 2, endlessSize, nil)}
	const T = 5 * sim.Millisecond
	net.EL.RunUntil(T)
	for _, s := range ss {
		rs = append(rs, ph[0].demux.Handler(s.Flow).(*Receiver))
	}
	caps := func() [4]int {
		return [4]int{ss[0].pkts.Cap(), rs[0].got.Cap(), ss[1].pkts.Cap(), rs[1].got.Cap()}
	}
	atT := caps()
	// Warm-up call to 4T, measured call to 10T.
	horizon, steps := T, []sim.Time{3 * T, 6 * T}
	allocs := testing.AllocsPerRun(1, func() {
		horizon, steps = horizon+steps[0], steps[1:]
		net.EL.RunUntil(horizon)
	})
	if at10T := caps(); at10T != atT {
		t.Errorf("scoreboard capacities grew with simulated time: %v at T, %v at 10T", atT, at10T)
	}
	for _, c := range atT {
		if c == 0 || c > 512 {
			t.Errorf("capacities %v: want one small window per endpoint", atT)
		}
	}
	if allocs != 0 {
		t.Errorf("steady state allocated %v objects between 4T and 10T", allocs)
	}
	if rtx, acked := ss[0].Rtx+ss[1].Rtx, ss[0].nAck+ss[1].nAck; rtx == 0 || acked < 5000 {
		t.Errorf("the run did not exercise the window: %d retransmissions, %d acked", rtx, acked)
	}
}

// phostCounters is what an ACK can change at the sender and a data packet
// at the receiver.
type phostCounters struct {
	nAck, packetsSent, rtx, base, end int64 // sender
	nGot, bytes, tokens               int64 // receiver
}

func (a phostCounters) minus(b phostCounters) phostCounters {
	return phostCounters{a.nAck - b.nAck, a.packetsSent - b.packetsSent, a.rtx - b.rtx, a.base - b.base, a.end - b.end,
		a.nGot - b.nGot, a.bytes - b.bytes, a.tokens - b.tokens}
}

// TestLateFeedbackCounters pins what an ACK or a data packet for a sequence
// number outside the live window does: below Base it is a duplicate of
// something already acked / received, past End it extends the window exactly
// as it extended the whole-flow arrays. Expected deltas captured from the
// parent commit's acked/sentAt/got arrays (base read as the length of their
// true prefix, end as their length).
func TestLateFeedbackCounters(t *testing.T) {
	net, ph := phostNet(4)
	s := ph[5].Connect(0, 1, endlessSize, nil)
	net.EL.RunUntil(sim.Millisecond)
	r := ph[0].demux.Handler(1).(*Receiver)
	sBase, sEnd, rBase, rEnd := s.pkts.Base(), s.pkts.End(), r.got.Base(), r.got.End()
	if sBase < 100 || sEnd-sBase < 10 || rBase < 100 {
		t.Fatalf("set-up: scoreboard [%d, %d), bitmap [%d, %d): want non-zero bases and a window in flight", sBase, sEnd, rBase, rEnd)
	}
	counters := func() phostCounters {
		return phostCounters{s.nAck, s.PacketsSent, s.Rtx, s.pkts.Base(), s.pkts.End(), r.nGot, r.bytes, r.tokens}
	}
	a := fabric.AttachArena(net.EL)
	ack := func(seq int64) func() {
		return func() {
			p := a.NewControl(fabric.Ack, 1, 0, 5)
			p.Seq = seq
			s.Receive(p)
		}
	}
	data := func(seq int64) func() {
		return func() { r.Receive(a.NewData(1, 5, 0, seq, 9000)) }
	}
	rows := []struct {
		name string
		do   func()
		want phostCounters
	}{
		{"ACK below Base", ack(sBase - 1), phostCounters{}},
		{"ACK in window", ack(sBase + 2), phostCounters{nAck: 1}},
		{"the same ACK again", ack(sBase + 2), phostCounters{}},
		{"ACK at Base+1", ack(sBase + 1), phostCounters{nAck: 1}},
		{"ACK at Base closes the hole", ack(sBase), phostCounters{nAck: 1, base: 3}},
		{"ACK again, now below Base", ack(sBase + 2), phostCounters{}},
		{"ACK past End", ack(sEnd + 4), phostCounters{nAck: 1, end: 5}},
		{"data below Base", data(rBase - 1), phostCounters{}},
		{"data past End", data(rEnd + 2), phostCounters{nGot: 1, bytes: 9000, tokens: 1}},
		{"the same data again", data(rEnd + 2), phostCounters{}},
	}
	for _, row := range rows {
		before := counters()
		row.do()
		if got := counters().minus(before); got != row.want {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, row.want)
		}
	}
	if r.got.End() != rEnd+3 {
		t.Errorf("bitmap ends at %d after data for %d, want %d", r.got.End(), rEnd+2, rEnd+3)
	}
	net.Close()
	if n := net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
}

// relaunch starts the next flow of a closed loop from the source host its
// argument names.
type relaunch func(src int)

func (f relaunch) OnEvent(src uint64) { f(int(src)) }

// TestRetiredListsStayChurnSized is core's test of the same name for pHost's
// free-lists: five one-packet connections per host in a closed loop with a
// ~1 ms gap keep about ten endpoints per host waiting out their 2*MSL, and
// the rings holding them are as large at 3T as at T.
func TestRetiredListsStayChurnSized(t *testing.T) {
	net, ph := phostNet(4)
	rnd := sim.NewRand(7)
	launched := uint64(0)
	var launch func(src int)
	launch = func(src int) {
		launched++
		dst := rnd.Intn(len(ph) - 1)
		if dst >= src {
			dst++
		}
		ph[src].Connect(int32(dst), launched, 1500, func(*Sender) {
			net.EL.ScheduleAfter(sim.Millisecond/2+rnd.Duration(sim.Millisecond), relaunch(launch), uint64(src))
		})
	}
	for src := range ph {
		for conn := 0; conn < 5; conn++ {
			launch(src)
		}
	}
	caps := func() (c [2]int) {
		for _, h := range ph {
			c[0], c[1] = max(c[0], h.retiredS.Cap()), max(c[1], h.retiredR.Cap())
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
