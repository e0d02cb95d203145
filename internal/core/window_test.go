package core

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// TestScoreboardStaysWindowSized: the per-packet state of an unbounded flow
// is sized by what is outstanding, not by how long the flow has run. Three
// unbounded senders share one receiver's link (trimming, NACKs and
// retransmissions all the way), and after ten times the run every
// scoreboard and arrival bitmap has the capacity it had after one — and the
// last six tenths of the run allocate nothing at all.
func TestScoreboardStaysWindowSized(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	var ss []*Sender
	for _, src := range []int{5, 10, 15} {
		ss = append(ss, st[src].Connect(st[0], -1, FlowOpts{}))
	}
	caps := func() (c [6]int) {
		for i, s := range ss {
			c[2*i], c[2*i+1] = s.pkts.Cap(), st[0].Receiver(s.Flow).got.Cap()
		}
		return c
	}
	const T = 2 * sim.Millisecond
	net.EL.RunUntil(T)
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
		if c == 0 || c > 256 {
			t.Errorf("capacities %v: want one small window per endpoint", atT)
		}
	}
	if allocs != 0 {
		t.Errorf("steady state allocated %v objects between 4T and 10T", allocs)
	}
	var rtx, acked int64
	for _, s := range ss {
		rtx += s.Retransmissions()
		acked += s.ackedCount
		if s.pkts.Base() < 10*int64(s.pkts.Cap()) {
			t.Errorf("flow %d: base %d has not left the first buffer behind", s.Flow, s.pkts.Base())
		}
	}
	if rtx == 0 || acked < 2000 {
		t.Errorf("the run did not exercise the window: %d retransmissions, %d acked", rtx, acked)
	}
}

// senderCounters is every counter the sender's feedback handlers touch.
type senderCounters struct {
	rxEvents, nacksSeen, bouncesSeen           int64
	ackedCount, ackedOrNacked, inflight        int64
	noted                                      int64 // recentAcks + recentNacks: noteEvent calls
	pathAcks, pathNaks                         int64 // pstats of the path the feedback names
	rtxNack, rtxBounce, rtxQueued, packetsSent int64
	fwBounced                                  int64
	base, end                                  int64
}

func countersOf(s *Sender, path int16) senderCounters {
	return senderCounters{
		rxEvents: s.rxEvents, nacksSeen: s.NacksSeen, bouncesSeen: s.BouncesSeen,
		ackedCount: s.ackedCount, ackedOrNacked: s.ackedOrNacked, inflight: s.inflight,
		noted:    s.recentAcks + s.recentNacks,
		pathAcks: s.pstats[path].acks, pathNaks: s.pstats[path].naks,
		rtxNack: s.RtxFromNack, rtxBounce: s.RtxFromBounce,
		rtxQueued: int64(s.rtxq.Len()), packetsSent: s.PacketsSent,
		fwBounced: s.fwBounced,
		base:      s.pkts.Base(), end: s.pkts.End(),
	}
}

func (a senderCounters) minus(b senderCounters) senderCounters {
	return senderCounters{
		a.rxEvents - b.rxEvents, a.nacksSeen - b.nacksSeen, a.bouncesSeen - b.bouncesSeen,
		a.ackedCount - b.ackedCount, a.ackedOrNacked - b.ackedOrNacked, a.inflight - b.inflight,
		a.noted - b.noted, a.pathAcks - b.pathAcks, a.pathNaks - b.pathNaks,
		a.rtxNack - b.rtxNack, a.rtxBounce - b.rtxBounce, a.rtxQueued - b.rtxQueued,
		a.packetsSent - b.packetsSent, a.fwBounced - b.fwBounced,
		a.base - b.base, a.end - b.end,
	}
}

// TestLateFeedbackCounters pins what feedback for a sequence number outside
// the live window does to the sender: below Base (ACKed and dropped from the
// scoreboard) it must leave exactly what the whole-flow array left for an
// ACKed entry, at or above End exactly what it left for an index past the
// array. The expected deltas were captured by running this table against
// the parent commit's []pkt scoreboard (base read as the length of its ACKed
// prefix).
func TestLateFeedbackCounters(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	s := st[0].Connect(st[15], -1, FlowOpts{})
	net.EL.RunUntil(sim.Millisecond)
	const path = 1
	a := fabric.AttachArena(net.EL)
	base, end := s.pkts.Base(), s.pkts.End()
	if base < 100 || end-base < 20 {
		t.Fatalf("set-up: window [%d, %d), want a non-zero base and a window in flight", base, end)
	}
	feedback := func(typ fabric.PacketType, seq int64) *fabric.Packet {
		p := a.NewControl(typ, s.Flow, 15, 0)
		p.Seq, p.PathID = seq, path
		return p
	}
	bounce := func(seq int64) *fabric.Packet {
		p := a.NewData(s.Flow, 0, 15, seq, 9000)
		p.PathID = path
		p.Trim()
		p.Bounce()
		return p
	}
	rows := []struct {
		name string
		pkt  *fabric.Packet
		want senderCounters
	}{
		{"ACK below Base", feedback(fabric.Ack, base-1), senderCounters{rxEvents: 1}},
		{"NACK below Base", feedback(fabric.Nack, base-1), senderCounters{rxEvents: 1, nacksSeen: 1, noted: 1, pathNaks: 1}},
		{"bounce below Base", bounce(base - 1), senderCounters{}},
		{"ACK at End", feedback(fabric.Ack, end), senderCounters{rxEvents: 1}},
		{"NACK past End", feedback(fabric.Nack, end+7), senderCounters{rxEvents: 1}},
		{"bounce at End", bounce(end), senderCounters{}},
		// The same three for an entry ACKed inside the window (the hole at
		// Base keeps it there), then again once Base has passed it.
		{"ACK in window", feedback(fabric.Ack, base+2), senderCounters{rxEvents: 1, ackedCount: 1, ackedOrNacked: 1, inflight: -1, noted: 1, pathAcks: 1}},
		{"ACK again, still in window", feedback(fabric.Ack, base+2), senderCounters{rxEvents: 1}},
		{"NACK for ACKed, still in window", feedback(fabric.Nack, base+2), senderCounters{rxEvents: 1, nacksSeen: 1, noted: 1, pathNaks: 1}},
		{"bounce for ACKed, still in window", bounce(base + 2), senderCounters{}},
		{"ACK at Base+1", feedback(fabric.Ack, base+1), senderCounters{rxEvents: 1, ackedCount: 1, ackedOrNacked: 1, inflight: -1, noted: 1, pathAcks: 1}},
		{"ACK at Base closes the hole", feedback(fabric.Ack, base), senderCounters{rxEvents: 1, ackedCount: 1, ackedOrNacked: 1, inflight: -1, noted: 1, pathAcks: 1, base: 3}},
		{"ACK again, now below Base", feedback(fabric.Ack, base+2), senderCounters{rxEvents: 1}},
		{"NACK for ACKed, now below Base", feedback(fabric.Nack, base+2), senderCounters{rxEvents: 1, nacksSeen: 1, noted: 1, pathNaks: 1}},
		{"bounce for ACKed, now below Base", bounce(base + 2), senderCounters{}},
		// A NACK and a bounce that do find their packet in flight.
		{"NACK in window", feedback(fabric.Nack, base+5), senderCounters{rxEvents: 1, nacksSeen: 1, ackedOrNacked: 1, inflight: -1, noted: 1, pathNaks: 1, rtxNack: 1, rtxQueued: 1}},
		{"bounce in window", bounce(base + 6), senderCounters{rxEvents: 1, bouncesSeen: 1, rtxBounce: 1, packetsSent: 1}},
	}
	for _, row := range rows {
		before := countersOf(s, path)
		s.Receive(row.pkt)
		if got := countersOf(s, path).minus(before); got != row.want {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, row.want)
		}
	}
	closeNoLeak(t, net, st)
}

// receiverCounters is every counter Receiver.Receive touches.
type receiverCounters struct {
	arrivals, trims, dups, nGot, bytes int64
	pulls                              int64 // pending pulls: +1 marks the NACK / new-data path
	base, end                          int64
}

func receiverCountersOf(r *Receiver) receiverCounters {
	return receiverCounters{r.Arrivals, r.Trims, r.Dups, r.nGot, r.bytes, int64(r.fp.pending), r.got.Base(), r.got.End()}
}

func (a receiverCounters) minus(b receiverCounters) receiverCounters {
	return receiverCounters{a.arrivals - b.arrivals, a.trims - b.trims, a.dups - b.dups, a.nGot - b.nGot,
		a.bytes - b.bytes, a.pulls - b.pulls, a.base - b.base, a.end - b.end}
}

// TestLateArrivalCounters is the receiving half: data and trimmed headers
// for a sequence number below the arrival bitmap's Base are duplicates of
// received data (ACKed, never NACKed, no pull), and one past End extends the
// bitmap. Expected deltas captured from the parent commit as above.
func TestLateArrivalCounters(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	s := st[0].Connect(st[15], -1, FlowOpts{})
	net.EL.RunUntil(sim.Millisecond)
	r := st[15].Receiver(s.Flow)
	base, end := r.got.Base(), r.got.End()
	if base < 100 {
		t.Fatalf("set-up: bitmap [%d, %d), want a non-zero base", base, end)
	}
	a := fabric.AttachArena(net.EL)
	data := func(seq int64, trim bool) *fabric.Packet {
		p := a.NewData(s.Flow, 0, 15, seq, 9000)
		if trim {
			p.Trim()
		}
		return p
	}
	rows := []struct {
		name string
		pkt  *fabric.Packet
		want receiverCounters
	}{
		{"data below Base", data(base-1, false), receiverCounters{arrivals: 1, dups: 1}},
		{"header below Base", data(base-1, true), receiverCounters{arrivals: 1, trims: 1}},
		{"header past End", data(end+3, true), receiverCounters{arrivals: 1, trims: 1, pulls: 1, end: 4}},
		{"data in the gap", data(end+1, false), receiverCounters{arrivals: 1, nGot: 1, bytes: 9000, pulls: 1}},
		{"the same data again", data(end+1, false), receiverCounters{arrivals: 1, dups: 1}},
		{"header for held data", data(end+1, true), receiverCounters{arrivals: 1, trims: 1}},
		{"data at End closes the prefix", data(end, false), receiverCounters{arrivals: 1, nGot: 1, bytes: 9000, pulls: 1, base: 2}},
		{"data again, now below Base", data(end+1, false), receiverCounters{arrivals: 1, dups: 1}},
		{"header again, now below Base", data(end+1, true), receiverCounters{arrivals: 1, trims: 1}},
	}
	for _, row := range rows {
		before := receiverCountersOf(r)
		r.Receive(row.pkt)
		if got := receiverCountersOf(r).minus(before); got != row.want {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, row.want)
		}
	}
	closeNoLeak(t, net, st)
}
