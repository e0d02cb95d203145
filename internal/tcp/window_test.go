package tcp_test

import (
	"testing"

	"ndp/internal/dctcp"
	"ndp/internal/fabric"
	"ndp/internal/mptcp"
	"ndp/internal/sim"
	"ndp/internal/tcp"
	"ndp/internal/topo"
)

// endless is an unbounded DataSource (permutation-style long flows).
type endless struct{ mss int }

func (e endless) Claim() int      { return e.mss }
func (e endless) Exhausted() bool { return false }

func windowNet(queue topo.QueueFactory) (*topo.FatTree, []*fabric.Demux) {
	net := topo.NewFatTree(4, topo.Config{Seed: 7, SwitchQueue: queue})
	dm := make([]*fabric.Demux, net.NumHosts())
	for i, h := range net.Hosts {
		dm[i] = fabric.NewDemux()
		h.Stack = dm[i]
	}
	return net, dm
}

// TestSegmentWindowStaysWindowSized: for TCP, DCTCP and MPTCP, two unbounded
// flows into one host (so there are drops or marks, fast retransmits and
// RTOs throughout) end ten times the run with the segment windows and
// arrival bitmaps they had after one, and the last six tenths allocate
// nothing.
func TestSegmentWindowStaysWindowSized(t *testing.T) {
	type endpoints struct {
		senders   []*tcp.Sender
		receivers []*tcp.Receiver
	}
	single := func(cfg tcp.Config) func(*topo.FatTree, []*fabric.Demux) endpoints {
		return func(net *topo.FatTree, dm []*fabric.Demux) (e endpoints) {
			for i, src := range []int32{5, 10} {
				flow := uint64(i + 1)
				snd := tcp.NewSender(net.Hosts[src], 0, flow, net.Paths(src, 0)[0], endless{cfg.MSS}, cfg)
				rcv := tcp.NewReceiver(net.Hosts[0], src, flow, net.Paths(0, src)[0])
				dm[src].Register(flow, snd)
				dm[0].Register(flow, rcv)
				snd.Start()
				e.senders, e.receivers = append(e.senders, snd), append(e.receivers, rcv)
			}
			return e
		}
	}
	plain := tcp.DefaultConfig()
	plain.MinRTO = sim.Millisecond
	cases := []struct {
		name  string
		queue topo.QueueFactory
		start func(*topo.FatTree, []*fabric.Demux) endpoints
		// loss: the run must have retransmitted (DCTCP's marks keep the
		// queue below the drop point, so it need not).
		loss bool
	}{
		{"tcp", fabric.FIFOQueues(100 * 9000), single(plain), true},
		{"dctcp", dctcp.QueueFactory(9000), single(dctcp.SenderConfig(9000)), false},
		{"mptcp", fabric.FIFOQueues(100 * 9000),
			func(net *topo.FatTree, dm []*fabric.Demux) (e endpoints) {
				cfg := mptcp.DefaultConfig()
				cfg.Subflows = 4
				cfg.TCP.MinRTO = sim.Millisecond
				for i, src := range []int32{5, 10} {
					f := mptcp.New(net.Hosts[src], net.Hosts[0], dm[src], dm[0], uint64(100*(i+1)), -1,
						net.Paths(src, 0), net.Paths(0, src), net.Rand, cfg)
					f.Start()
					e.senders, e.receivers = append(e.senders, f.Senders...), append(e.receivers, f.Receivers...)
				}
				return e
			}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, dm := windowNet(tc.queue)
			e := tc.start(net, dm)
			caps := func() (c []int) {
				for i := range e.senders {
					_, _, sc := e.senders[i].Window()
					_, _, rc := e.receivers[i].Window()
					c = append(c, sc, rc)
				}
				return c
			}
			const T = 10 * sim.Millisecond
			net.EL.RunUntil(T)
			atT := caps()
			// Warm-up call to 4T, measured call to 10T.
			horizon, steps := T, []sim.Time{3 * T, 6 * T}
			allocs := testing.AllocsPerRun(1, func() {
				horizon, steps = horizon+steps[0], steps[1:]
				net.EL.RunUntil(horizon)
			})
			at10T := caps()
			for i := range atT {
				if atT[i] != at10T[i] || atT[i] == 0 || atT[i] > 1024 {
					t.Errorf("window capacities %v at T, %v at 10T: want the same small windows", atT, at10T)
					break
				}
			}
			if allocs != 0 {
				t.Errorf("steady state allocated %v objects between 4T and 10T", allocs)
			}
			var rtx, acked int64
			for _, s := range e.senders {
				rtx += s.Rtx
				acked += s.AckedPackets
			}
			if acked < 10_000 || (tc.loss && rtx == 0) {
				t.Errorf("the run did not exercise the window: %d acked, %d retransmitted", acked, rtx)
			}
		})
	}
}

// tcpCounters is what an ACK can change at the sender.
type tcpCounters struct {
	una, nxt, end            int64
	dupacks                  int
	ackedPackets, ackedBytes int64
	packetsSent, rtx         int64
}

func tcpCountersOf(s *tcp.Sender) tcpCounters {
	una, nxt, dup := s.SeqState()
	_, end, _ := s.Window()
	return tcpCounters{una, nxt, end, dup, s.AckedPackets, s.AckedBytes, s.PacketsSent, s.Rtx}
}

func (a tcpCounters) minus(b tcpCounters) tcpCounters {
	return tcpCounters{a.una - b.una, a.nxt - b.nxt, a.end - b.end, a.dupacks - b.dupacks,
		a.ackedPackets - b.ackedPackets, a.ackedBytes - b.ackedBytes, a.packetsSent - b.packetsSent, a.rtx - b.rtx}
}

// TestLateAckCounters pins what a cumulative ACK outside the segment window
// does: below sndUna (the window's base) nothing, at sndUna a duplicate ACK,
// past End — for segments never claimed — exactly what the whole-flow
// arrays did with an index past their length. Expected deltas captured from
// the parent commit's sizes/rtxed arrays (end read as len(sizes)).
func TestLateAckCounters(t *testing.T) {
	net, dm := windowNet(fabric.FIFOQueues(100 * 9000))
	cfg := tcp.DefaultConfig()
	cfg.Handshake, cfg.MaxCwnd = false, 40
	s := tcp.NewSender(net.Hosts[5], 0, 1, net.Paths(5, 0)[0], endless{cfg.MSS}, cfg)
	dm[5].Register(1, s)
	dm[0].Register(1, tcp.NewReceiver(net.Hosts[0], 5, 1, net.Paths(0, 5)[0]))
	s.Start()
	net.EL.RunUntil(2 * sim.Millisecond)
	una, nxt, _ := s.SeqState()
	base, end, _ := s.Window()
	if base != una || end != nxt || una < 200 || nxt-una != 40 {
		t.Fatalf("set-up: sndUna %d sndNxt %d window [%d, %d), want a full 40-segment window far from 0", una, nxt, base, end)
	}
	a := fabric.AttachArena(net.EL)
	ack := func(no int64) *fabric.Packet {
		p := a.NewControl(fabric.Ack, 1, 0, 5)
		p.AckNo = no
		return p
	}
	rows := []struct {
		name  string
		ackNo int64
		want  tcpCounters
	}{
		{"below sndUna", una - 5, tcpCounters{}},
		{"at sndUna: duplicate", una, tcpCounters{dupacks: 1, nxt: 1, end: 1, packetsSent: 1}},
		{"new ACK inside the window", una + 3, tcpCounters{una: 3, dupacks: -1, ackedPackets: 3, ackedBytes: 27000, nxt: 2, end: 2, packetsSent: 2}},
		{"now below sndUna", una + 1, tcpCounters{}},
		{"past End", end + 13, tcpCounters{una: 50, nxt: 50, end: 50, ackedPackets: 50, ackedBytes: 360000, packetsSent: 50}},
	}
	for _, row := range rows {
		before := tcpCountersOf(s)
		s.Receive(ack(row.ackNo))
		if got := tcpCountersOf(s).minus(before); got != row.want {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, row.want)
		}
	}
	net.Close()
	if n := net.PacketsInUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
}
