package core

import (
	"fmt"
	"slices"
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// TestLatePacketsAfterHandBack: a completed flow gives its working arrays
// back at once but stays registered for 2*MSL, and during that time it must
// answer late packets exactly as a flow that kept its arrays did. Each late
// packet goes straight into the stack that holds the flow; what reaches
// either host afterwards, and the counters, are the values recorded before
// the hand-back existed.
func TestLatePacketsAfterHandBack(t *testing.T) {
	net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
	const flow = 1001
	stale := -1 // the retransmission queue's length at completion
	s := st[0].Connect(st[15], 3*9000, FlowOpts{Flow: flow, OnSenderDone: func(s *Sender) { stale = s.rtxq.Len() }})
	// Once both pulls are in and two packets ACKed, a NACK for the last one
	// queues it for retransmission; its ACK then completes the flow with the
	// entry still queued, which a late PULL only skips.
	for (s.lastPullSeq < 2 || s.ackedCount < 2) && !s.Complete() {
		net.EL.RunUntil(net.EL.Now() + 100*sim.Nanosecond)
	}
	a := fabric.AttachArena(net.EL)
	nack := a.NewControl(fabric.Nack, flow, 15, 0)
	nack.Seq, nack.PathID = 2, 3
	st[0].Receive(nack)
	net.EL.RunUntil(300 * sim.Microsecond)
	r := st[15].Receiver(flow)
	if !s.Complete() || r == nil || !r.Complete() || stale != 1 {
		t.Fatalf("the transfer did not complete with one stale retransmission queued (%d)", stale)
	}
	if s.pkts.Cap() != 0 || s.rtxq.Cap() != 0 || s.perm != nil || s.pstats != nil || r.got.Cap() != 0 {
		t.Fatal("the completed flow still holds a buffer")
	}

	var arrived []string
	for _, x := range []*Stack{st[0], st[15]} {
		sink, host := x.Host.Stack, x.Host.ID
		x.Host.Stack = fabric.SinkFunc(func(p *fabric.Packet) {
			arrived = append(arrived, fmt.Sprintf("@%d %v at %v path=%d flags=%#x pullseq=%d",
				host, p, net.EL.Now(), p.PathID, p.Flags, p.PullSeq()))
			sink.Receive(p)
		})
	}
	ack := a.NewControl(fabric.Ack, flow, 15, 0)
	ack.Seq, ack.PathID = 1, 2
	nack = a.NewControl(fabric.Nack, flow, 15, 0)
	nack.Seq, nack.PathID = 2, 3
	pull := a.NewControl(fabric.Pull, flow, 15, 0)
	pull.SetPullSeq(100)
	bounced := a.NewData(flow, 0, 15, 1, 9000)
	bounced.PathID = 1
	bounced.Trim()
	bounced.Bounce()
	dup := a.NewData(flow, 0, 15, 1, 9000)
	dup.PathID = 1
	trimmed := a.NewData(flow, 0, 15, 2, 9000)
	trimmed.PathID = 2
	trimmed.Flags |= fabric.FlagFIN
	trimmed.Trim()
	for _, p := range []*fabric.Packet{ack, nack, pull, bounced} {
		st[0].Receive(p)
	}
	for _, p := range []*fabric.Packet{dup, trimmed} {
		st[15].Receive(p)
	}
	net.EL.RunUntil(sim.Millisecond)

	want := []string{
		"@0 ACK flow=1001 15->0 seq=1 size=64 at 303.3us path=1 flags=0x0 pullseq=0",
		"@0 ACK flow=1001 15->0 seq=2 size=64 at 303.4us path=2 flags=0x0 pullseq=0",
	}
	if !slices.Equal(arrived, want) {
		t.Errorf("late packets drew\n%s\nwant\n%s", fmt.Sprintln(arrived), fmt.Sprintln(want))
	}
	counters := fmt.Sprintf("sender: nacks=%d bounces=%d sent=%d rtx=%d; receiver: dups=%d trims=%d arrivals=%d; strays=%d,%d",
		s.NacksSeen, s.BouncesSeen, s.PacketsSent, s.Retransmissions(), r.Dups, r.Trims, r.Arrivals, strays(st[0]), strays(st[15]))
	if wantCounters := "sender: nacks=2 bounces=0 sent=3 rtx=1; receiver: dups=1 trims=1 arrivals=5; strays=0,0"; counters != wantCounters {
		t.Errorf("counters %s\nwant %s", counters, wantCounters)
	}
	if st[0].Sender(flow) != s || st[15].Receiver(flow) != r {
		t.Error("the completed flow left its table before 2*MSL")
	}
	closeNoLeak(t, net, st)
}
