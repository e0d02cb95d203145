package fabric_test

import (
	"fmt"
	"strings"
	"testing"

	"ndp/internal/core"
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// This file checks the on-demand mode of a switch egress port (see
// fabric.Port) against the eager reference transmitter of
// port_elide_test.go, inside a switch: three ingress links feed one egress
// through each queue discipline, the egress's peer answers some packets
// back into the switch from inside its delivery event, and the NDP queue's
// return-to-sender headers loop back into the same switch. Delivery
// sequence, telemetry, queue counters and the final clock must be identical,
// and the on-demand port must fire one event fewer per packet sent. The
// package is external because core imports fabric; export_test.go lends it
// the reference and the port's internal state.

// The grid: at odRate a 64-byte header serializes in exactly one tick and
// every packet is a whole number of ticks, so arrivals land on serialization
// ends all the time. The third link is one picosecond longer, which puts its
// arrivals just past them.
const (
	odTick      = 100 * sim.Nanosecond
	odRate      = 64 * 8 * int64(sim.Second/odTick)
	odEgressUID = 9
	odIdle      = 100 * odTick // an arrival this long after the last serialization end finds a long-idle port
	odAnswered  = 7            // the egress's peer answers data packets of this many ticks
	odEchoFlow  = 1 << 32      // flow ids of its answers
)

var odLinkDelay = [...]sim.Time{odTick, 2 * odTick, 2*odTick + 1}

type odQueue uint8

const (
	odFIFO odQueue = iota
	odECN
	odCtrlPrio
	odNDP
	odQueues
)

func (k odQueue) String() string { return [...]string{"fifo", "ecn", "ctrlprio", "ndp"}[k] }

func (k odQueue) build() fabric.Queue {
	switch k {
	case odFIFO:
		return fabric.NewFIFOQueue(12 * 64)
	case odECN:
		return fabric.NewECNQueue(24*64, 4*64)
	case odCtrlPrio:
		return fabric.NewCtrlPrioQueue()
	}
	// Small enough to trim, bounce and drop under three links; 2:1 WRR so
	// the header/data alternation shows within a few packets.
	cfg := core.SwitchConfig{DataCapPackets: 3, HeaderCapBytes: 4 * fabric.HeaderSize, HeaderWRR: 2}
	return core.NewSwitchQueue(cfg, sim.NewRand(7))
}

// The egress link's propagation delay: shorter than a header's
// serialization (every delivery event carries exactly one catch-up), a few
// packets long, and far longer (one delivery event catches up on a whole
// backlog).
var odDelays = [...]sim.Time{odTick / 2, 3 * odTick, 40 * odTick}

// odOp is one packet offered to an ingress link, gap ticks after the
// previous op: a control packet (ticks 0) or ticks*64 bytes of data.
type odOp struct {
	gap, link, ticks int
}

// encode and decodeOps are the fuzz corpus format: three bytes an op.
func encodeOps(ops []odOp) []byte {
	b := make([]byte, 0, 3*len(ops))
	for _, op := range ops {
		b = append(b, byte(op.gap), byte(op.link), byte(op.ticks))
	}
	return b
}

func decodeOps(b []byte) []odOp {
	ops := make([]odOp, 0, len(b)/3)
	for ; len(b) >= 3; b = b[3:] {
		ops = append(ops, odOp{gap: int(b[0]), link: int(b[1]) % len(odLinkDelay), ticks: int(b[2]) % 11})
	}
	return ops
}

type odDelivery struct {
	at    sim.Time
	flow  uint64
	size  int32
	flags uint16
}

// odWorld is one switch under test: the ingress links, the egress (the
// on-demand port behind a real fabric.Switch, or the eager reference) and
// the egress's peer.
type odWorld struct {
	el    *sim.EventList
	arena *fabric.Arena
	links []*fabric.Port
	q     fabric.Queue
	log   []odDelivery
	echo  uint64

	sw    *fabric.Switch // on-demand world
	port  *fabric.Port
	eager *fabric.EagerPort // reference world

	// Reference-side proof of which boundary an arrival hit.
	atFreeAt   int // arrived at exactly the instant the wire packet finishes, port still busy
	justAfter  int // arrived 1 ps after a serialization end that started the next packet
	idleBursts int // arrived at a port idle for at least odIdle

	// On-demand-side proof of where the starts happened. seen is the port's
	// PacketsSent at the last point the harness looked.
	seen           int64
	handlerStarts  int64 // packets started by the catch-up of a delivery event
	maxHandlerLoop int64 // most of them in one event
	maxEnqueueLoop int64 // most packets one Enqueue started (two or more: a catch-up)
	enqueueCatches int   // Enqueues that found a start owed and made it
	failed         error
}

func newODWorld(kind odQueue, delay sim.Time, eager bool) *odWorld {
	w := &odWorld{el: sim.NewEventList(), q: kind.build()}
	w.arena = fabric.AttachArena(w.el)
	for i, d := range odLinkDelay {
		l := fabric.NewPort(w.el, fmt.Sprintf("in%d", i), fabric.NewFIFOQueue(0), odRate, d)
		l.UID = uint32(i + 1)
		l.Connect(fabric.SinkFunc(w.input))
		w.links = append(w.links, l)
	}
	peer := fabric.SinkFunc(w.deliver)
	if eager {
		w.eager = fabric.NewEagerPort(w.el, w.q, odRate, delay, odEgressUID, peer)
		if q, ok := w.q.(*core.SwitchQueue); ok {
			q.BounceSink = fabric.SinkFunc(w.input)
		}
		return w
	}
	w.sw = fabric.NewSwitch(w.el, 0, "dut")
	w.sw.Route = func(*fabric.Switch, *fabric.Packet) int { return 0 }
	w.port = fabric.NewPort(w.el, "egress", w.q, odRate, delay)
	w.port.UID = odEgressUID
	w.port.Connect(peer)
	w.sw.AddPort(w.port)
	core.WireBounce([]*fabric.Switch{w.sw})
	return w
}

// look accounts the packets the on-demand port has started since the
// harness last looked, and returns how many.
func (w *odWorld) look() int64 {
	d := w.port.PacketsSent - w.seen
	w.seen = w.port.PacketsSent
	return d
}

// input is the switch's receiving side: every ingress link, the echoing
// peer and (reference world) the bounce sink deliver here.
func (w *odWorld) input(p *fabric.Packet) {
	if w.eager != nil {
		st, now := w.eager.State(), w.el.Now()
		switch {
		case st.Busy && now == st.FreeAt:
			w.atFreeAt++
		case st.Busy && st.Chained && now == st.StartedAt+1:
			w.justAfter++
		case !st.Busy && st.PacketsSent > 0 && now-st.FreeAt >= odIdle:
			w.idleBursts++
		}
		w.eager.Enqueue(p)
		return
	}
	if d := w.look(); d != 0 && w.failed == nil {
		w.failed = fmt.Errorf("%d packets started between events, before the arrival at %v", d, w.el.Now())
	}
	owed := w.port.StartOwed()
	w.sw.Receive(p)
	d := w.look()
	w.maxEnqueueLoop = max(w.maxEnqueueLoop, d)
	if owed && d > 0 {
		w.enqueueCatches++
	}
}

// deliver is the egress's peer. It logs the packet and answers every whole
// odAnswered-tick packet with a new one into the switch, from inside the delivery event —
// on the on-demand port, while its catch-up has just run and the entry being
// delivered has only just left the flight.
func (w *odWorld) deliver(p *fabric.Packet) {
	if w.port != nil {
		d := w.look()
		w.handlerStarts += d
		w.maxHandlerLoop = max(w.maxHandlerLoop, d)
	}
	w.log = append(w.log, odDelivery{at: w.el.Now(), flow: p.Flow, size: p.Size, flags: p.Flags})
	answer := p.Size == odAnswered*64
	fabric.Free(p)
	if answer {
		w.echo++
		w.input(w.arena.NewData(odEchoFlow+w.echo, 0, 1, 0, 2*64))
	}
}

// install schedules the ops. Links are event-driven ports, so plain events
// may feed them.
func (w *odWorld) install(ops []odOp) {
	at := sim.Time(0)
	for i, op := range ops {
		at += sim.Time(op.gap) * odTick
		op, flow := op, uint64(i+1)
		w.el.Schedule(at, fabric.FuncEvent(func() {
			if op.ticks == 0 {
				w.links[op.link].Enqueue(w.arena.NewControl(fabric.Ack, flow, 0, 1))
				return
			}
			w.links[op.link].Enqueue(w.arena.NewData(flow, 0, 1, 0, int32(64*op.ticks)))
		}), 0)
	}
}

// runTo fires every event up to deadline (all of them for sim.Infinity),
// checking the on-demand port's invariant after each.
func (w *odWorld) runTo(deadline sim.Time) {
	for w.el.NextAt() <= deadline && w.el.Step() {
		if w.port != nil && w.failed == nil {
			w.failed = w.port.CheckOnDemand()
		}
	}
	if deadline != sim.Infinity {
		w.el.RunUntil(deadline)
	}
}

func (w *odWorld) release() {
	for _, l := range w.links {
		l.ReleasePackets()
	}
	if w.eager != nil {
		w.eager.ReleasePackets()
	} else {
		w.sw.ReleasePackets()
	}
}

// compareOnDemand runs one stream through both worlds and checks the
// contract; it returns them for the caller's own assertions.
func compareOnDemand(t testing.TB, kind odQueue, delay sim.Time, ops []odOp) (ref, dut *odWorld) {
	t.Helper()
	ref, dut = newODWorld(kind, delay, true), newODWorld(kind, delay, false)
	if !dut.port.OnDemand() {
		t.Fatal("Switch.AddPort left a local, lossy egress port event-driven")
	}
	for _, w := range []*odWorld{ref, dut} {
		w.install(ops)
		w.runTo(sim.Infinity)
	}
	if dut.failed != nil {
		t.Fatal(dut.failed)
	}
	if len(ref.log) != len(dut.log) {
		t.Fatalf("delivered %d packets, reference %d", len(dut.log), len(ref.log))
	}
	for i := range ref.log {
		if ref.log[i] != dut.log[i] {
			t.Fatalf("delivery %d = %+v, reference %+v", i, dut.log[i], ref.log[i])
		}
	}
	st := ref.eager.State()
	if p := dut.port; p.BytesSent != st.BytesSent || p.PacketsSent != st.PacketsSent || p.BusyTime != st.BusyTime {
		t.Errorf("telemetry bytes/packets/busy = %d/%d/%v, reference %d/%d/%v",
			p.BytesSent, p.PacketsSent, p.BusyTime, st.BytesSent, st.PacketsSent, st.BusyTime)
	}
	if *dut.q.Stats() != *ref.q.Stats() {
		t.Errorf("queue counters %+v, reference %+v", *dut.q.Stats(), *ref.q.Stats())
	}
	if dut.el.Now() != ref.el.Now() {
		t.Errorf("clock ends at %v, reference %v", dut.el.Now(), ref.el.Now())
	}
	if got, want := int64(ref.el.Executed()-dut.el.Executed()), st.PacketsSent; got != want {
		t.Errorf("fired %d fewer events than the reference, want one per packet sent (%d)", got, want)
	}
	if ref.arena.InUse() != 0 || dut.arena.InUse() != 0 {
		t.Errorf("packets in use after the drain: %d, reference %d", dut.arena.InUse(), ref.arena.InUse())
	}
	return ref, dut
}

func randomODOps(seed uint64, n int) []odOp {
	r := sim.NewRand(seed)
	ops := make([]odOp, n)
	for i := range ops {
		// Three links at full rate overload the egress three to one; the
		// gaps let it drain, and sometimes sit idle for a long while.
		gap := r.Intn(3)
		switch r.Intn(16) {
		case 0:
			gap = 20 + r.Intn(40)
		case 1:
			gap = 150 + r.Intn(100)
		}
		ops[i] = odOp{gap: gap, link: r.Intn(len(odLinkDelay)), ticks: r.Intn(11)}
		if r.Intn(3) == 0 {
			ops[i].ticks = 0
		}
	}
	return ops
}

func TestOnDemandPortMatchesEagerReference(t *testing.T) {
	for kind := odQueue(0); kind < odQueues; kind++ {
		for _, delay := range odDelays {
			t.Run(fmt.Sprintf("%v/delay=%v", kind, delay), func(t *testing.T) {
				var sum fabric.QueueStats
				var atFreeAt, justAfter, idle int
				var handler, loop int64
				for seed := uint64(1); seed <= 30; seed++ {
					ref, dut := compareOnDemand(t, kind, delay, randomODOps(seed, 300))
					s := dut.q.Stats()
					sum.Drops, sum.Trims, sum.Marks, sum.Bounces = sum.Drops+s.Drops, sum.Trims+s.Trims, sum.Marks+s.Marks, sum.Bounces+s.Bounces
					atFreeAt, justAfter, idle = atFreeAt+ref.atFreeAt, justAfter+ref.justAfter, idle+ref.idleBursts
					handler, loop = handler+dut.handlerStarts, max(loop, dut.maxHandlerLoop, dut.maxEnqueueLoop)
				}
				if atFreeAt == 0 || justAfter == 0 || idle == 0 {
					t.Errorf("boundaries reached: %d arrivals at freeAt, %d one ps after, %d at an idle port — want all three",
						atFreeAt, justAfter, idle)
				}
				// A delay below a header's serialization time never lets two
				// serialization ends pass between delivery events.
				if handler == 0 || (loop < 2) != (delay < odTick) {
					t.Errorf("%d starts from delivery events, longest catch-up %d: the streams do not exercise the catch-up", handler, loop)
				}
				switch kind {
				case odFIFO:
					if sum.Drops == 0 {
						t.Error("the bounded FIFO never dropped")
					}
				case odECN:
					if sum.Marks == 0 {
						t.Error("the ECN queue never marked")
					}
				case odNDP:
					if sum.Trims == 0 || sum.Bounces == 0 || sum.Drops == 0 {
						t.Errorf("NDP queue trims/bounces/drops = %d/%d/%d, want all three", sum.Trims, sum.Bounces, sum.Drops)
					}
				}
			})
		}
	}
}

// odCase is one named boundary stream with the proof that it got there.
type odCase struct {
	name  string
	kind  odQueue
	delay sim.Time
	ops   []odOp
	// order, when set, is the flows of the deliveries expected, in order.
	order []uint64
	check func(t *testing.T, ref, dut *odWorld)
}

// backlog is a ten-tick packet followed by eight control packets that reach
// the egress while it serializes, and then silence: everything after the
// first packet is started by the catch-up of a delivery event.
var odBacklog = []odOp{
	{0, 0, 10},
	{10, 1, 0}, {0, 2, 0}, {1, 1, 0}, {0, 2, 0}, {1, 1, 0}, {0, 2, 0}, {1, 1, 0}, {0, 2, 0},
}

var odCases = []odCase{
	{
		// The five-tick packet reaches the egress at tick 6 and finishes at
		// 11. A data packet (link 0) and a control packet (link 1) both
		// arrive at exactly 11: the end is still pending, so both queue and
		// the control packet goes first.
		name: "arrival exactly at freeAt queues behind the pending end",
		kind: odCtrlPrio, delay: 3 * odTick,
		ops:   []odOp{{0, 0, 5}, {8, 0, 2}, {0, 1, 0}},
		order: []uint64{1, 3, 2},
		check: func(t *testing.T, ref, dut *odWorld) {
			if ref.atFreeAt != 2 {
				t.Errorf("%d arrivals at exactly freeAt, want 2", ref.atFreeAt)
			}
		},
	},
	{
		// The data packet now arrives at tick 10 and waits; the control
		// packet takes the long link and arrives at 11 + 1 ps. The data
		// packet must be on the wire by then — started by the catch-up at
		// the top of Enqueue, before the queue sees the control packet,
		// which would otherwise overtake it.
		name: "arrival one ps later sees the next packet started",
		kind: odCtrlPrio, delay: 3 * odTick,
		ops:   []odOp{{0, 0, 5}, {7, 0, 2}, {1, 2, 0}},
		order: []uint64{1, 2, 3},
		check: func(t *testing.T, ref, dut *odWorld) {
			if ref.justAfter != 1 {
				t.Errorf("%d arrivals one ps after a chained start, want 1", ref.justAfter)
			}
			if dut.enqueueCatches != 1 {
				t.Errorf("%d Enqueues caught up, want the control packet's", dut.enqueueCatches)
			}
		},
	},
	{
		name: "delay below a header's serialization: one catch-up per delivery event",
		kind: odFIFO, delay: odTick / 2,
		ops: odBacklog,
		check: func(t *testing.T, ref, dut *odWorld) {
			if dut.handlerStarts != 8 || dut.maxHandlerLoop != 1 {
				t.Errorf("delivery events started %d packets, at most %d each; want 8, one each", dut.handlerStarts, dut.maxHandlerLoop)
			}
		},
	},
	{
		name: "delay far above it: one delivery event catches up on the whole backlog",
		kind: odFIFO, delay: 40 * odTick,
		ops: odBacklog,
		check: func(t *testing.T, ref, dut *odWorld) {
			if dut.handlerStarts != 8 || dut.maxHandlerLoop != 8 {
				t.Errorf("delivery events started %d packets, at most %d in one; want all 8 in one loop", dut.handlerStarts, dut.maxHandlerLoop)
			}
		},
	},
	{
		// The catch-up runs while the delivered entry still heads the flight
		// and the port is still armed. The first packet is answered from
		// inside the event, so the handler both catches up and takes an
		// Enqueue before it re-arms: arming the head a second time delivers
		// the next packet early.
		name: "catch-up inside the delivery handler, then an answer on the same port",
		kind: odFIFO, delay: 3 * odTick,
		ops: []odOp{{0, 0, odAnswered}, {0, 1, 1}, {0, 2, 1}, {0, 0, 1}, {0, 1, 4}, {0, 2, 2}, {0, 0, 2}},
		check: func(t *testing.T, ref, dut *odWorld) {
			if dut.handlerStarts == 0 || dut.echo == 0 {
				t.Errorf("%d handler starts, %d answers: want both", dut.handlerStarts, dut.echo)
			}
		},
	},
	{
		// 2:1 weighted round robin over a backlog of four headers (all the
		// header queue holds) and two data packets, all served by one
		// catch-up loop: H H D H H D.
		name: "WRR header/data alternation across a catch-up",
		kind: odNDP, delay: 40 * odTick,
		ops: []odOp{
			{0, 0, 10},
			{9, 0, 2}, {0, 0, 2},
			{1, 1, 0}, {0, 2, 0}, {1, 1, 0}, {0, 2, 0},
		},
		order: []uint64{1, 4, 5, 2, 6, 7, 3},
		check: func(t *testing.T, ref, dut *odWorld) {
			if dut.maxHandlerLoop != 6 {
				t.Errorf("longest catch-up %d, want the whole backlog of 6", dut.maxHandlerLoop)
			}
		},
	},
	{
		name: "long idle, then a burst from every link",
		kind: odNDP, delay: 3 * odTick,
		ops: []odOp{
			{0, 0, 3}, {1, 1, 0},
			{200, 0, 9}, {0, 1, 9}, {0, 2, 9}, {0, 0, 9}, {0, 1, 9}, {0, 2, 9}, {0, 0, 9}, {0, 1, 9}, {0, 2, 9},
			{0, 0, 0}, {0, 1, 0}, {0, 2, 0}, {0, 0, 0}, {0, 1, 0}, {0, 2, 0},
		},
		check: func(t *testing.T, ref, dut *odWorld) {
			if ref.idleBursts == 0 {
				t.Error("no arrival found the port long idle")
			}
			if s := dut.q.Stats(); s.Trims == 0 {
				t.Errorf("the burst trimmed nothing: %+v", *s)
			}
		},
	},
}

func TestOnDemandPortBoundaries(t *testing.T) {
	for _, c := range odCases {
		t.Run(c.name, func(t *testing.T) {
			ref, dut := compareOnDemand(t, c.kind, c.delay, c.ops)
			if c.order != nil {
				var got []uint64
				for _, d := range dut.log {
					got = append(got, d.flow)
				}
				if fmt.Sprint(got) != fmt.Sprint(c.order) {
					t.Errorf("delivery order %v, want %v", got, c.order)
				}
			}
			c.check(t, ref, dut)
		})
	}
}

// TestOnDemandPortStoppedMidRun stops both worlds at fifty arbitrary
// instants. After Sync the on-demand port's counters are the reference's,
// and Busy agrees; a world torn down at any of them leaks nothing.
func TestOnDemandPortStoppedMidRun(t *testing.T) {
	for kind := odQueue(0); kind < odQueues; kind++ {
		t.Run(kind.String(), func(t *testing.T) {
			ops := randomODOps(uint64(40+kind), 400)
			r := sim.NewRand(uint64(kind) + 1)
			ref, dut := newODWorld(kind, 3*odTick, true), newODWorld(kind, 3*odTick, false)
			ref.install(ops)
			dut.install(ops)
			stop, lagged := sim.Time(0), 0
			for i := 0; i < 50; i++ {
				// Off the grid and on it: a stop exactly on a serialization
				// end counts the packet that starts there.
				stop += sim.Time(r.Intn(40)) * odTick
				if i%2 == 0 {
					stop += sim.Time(r.Intn(int(odTick)))
				}
				ref.runTo(stop)
				dut.runTo(stop)
				st, p := ref.eager.State(), dut.port
				if p.PacketsSent != st.PacketsSent {
					lagged++
				}
				// Any of the readers brings the port up to date.
				busy := st.Busy
				switch i % 3 {
				case 0:
					busy = p.Busy()
				case 1:
					p.Sync()
				case 2:
					p.Utilization(stop)
				}
				if p.PacketsSent != st.PacketsSent || p.BytesSent != st.BytesSent || p.BusyTime != st.BusyTime || busy != st.Busy {
					t.Fatalf("stopped at %v: packets/bytes/busy time/busy = %d/%d/%v/%v, reference %d/%d/%v/%v", stop,
						p.PacketsSent, p.BytesSent, p.BusyTime, busy, st.PacketsSent, st.BytesSent, st.BusyTime, st.Busy)
				}
				if err := p.CheckOnDemand(); err != nil {
					t.Fatalf("after Sync at %v: %v", stop, err)
				}
				dut.look()

				torn := newODWorld(kind, 3*odTick, false)
				torn.install(ops)
				torn.runTo(stop)
				torn.release()
				if n := torn.arena.InUse(); n != 0 {
					t.Fatalf("torn down at %v: %d packets leaked", stop, n)
				}
			}
			if lagged == 0 {
				t.Error("no stop found the on-demand port behind the reference: Sync was never needed")
			}
			ref.runTo(sim.Infinity)
			dut.runTo(sim.Infinity)
			if dut.failed != nil {
				t.Fatal(dut.failed)
			}
			if fmt.Sprint(ref.log) != fmt.Sprint(dut.log) {
				t.Error("deliveries differ from the reference after the stops")
			}
		})
	}
}

// TestOnDemandPortRejectsLateFeeds: the commutation argument needs every
// arrival to come from a delivery-class event (or from outside the event
// loop, where no tie is open). Anything else must panic, not drift.
func TestOnDemandPortRejectsLateFeeds(t *testing.T) {
	feeds := []struct {
		name  string
		feed  func(w *odWorld, send func())
		panic bool
	}{
		{"set-up code", func(w *odWorld, send func()) { send() }, false},
		{"delivery-class event", func(w *odWorld, send func()) {
			w.el.ScheduleKeyed(odTick, sim.DeliveryOrd(3, 1), fabric.FuncEvent(send), 0)
		}, false},
		{"command-class event", func(w *odWorld, send func()) {
			w.el.ScheduleKeyed(odTick, sim.CommandOrd(3, 1), fabric.FuncEvent(send), 0)
		}, true},
		{"plain event", func(w *odWorld, send func()) { w.el.Schedule(odTick, fabric.FuncEvent(send), 0) }, true},
		{"PFC-class event", func(w *odWorld, send func()) { w.el.ScheduleKeyed(odTick, sim.PFCOrd(3, 1), fabric.FuncEvent(send), 0) }, true},
	}
	for _, f := range feeds {
		t.Run(f.name, func(t *testing.T) {
			w := newODWorld(odFIFO, 3*odTick, false)
			defer func() {
				msg := fmt.Sprint(recover())
				if got := strings.Contains(msg, "not a link delivery"); got != f.panic {
					t.Errorf("panicked with %q, want a panic: %v", msg, f.panic)
				}
			}()
			f.feed(w, func() { w.sw.Receive(w.arena.NewData(1, 0, 1, 0, 128)) })
			w.el.Run()
			if len(w.log) != 1 {
				t.Errorf("delivered %d packets, want 1", len(w.log))
			}
		})
	}
	t.Run("PFC pause", func(t *testing.T) {
		w := newODWorld(odFIFO, 3*odTick, false)
		defer func() {
			if recover() == nil {
				t.Error("SetPaused on an on-demand port did not panic")
			}
		}()
		w.port.SetPaused(true)
	})
}

// gatedQueue is a FIFO that shows nothing until it holds two packets, so
// that one Enqueue on an idle port both starts a packet and leaves another
// waiting — which no real discipline does.
type gatedQueue struct {
	*fabric.FIFOQueue
	open bool
}

func (q *gatedQueue) Enqueue(p *fabric.Packet) {
	q.FIFOQueue.Enqueue(p)
	q.open = q.open || q.Packets() == 2
}

func (q *gatedQueue) Empty() bool { return !q.open || q.FIFOQueue.Empty() }

// TestOnDemandPortArmsBehindIdleStart: an on-demand port with a start owed
// has no event but its delivery, so a packet started from idle is armed even
// when another already waits behind it (an event-driven port leaves that to
// the serialization-end event).
func TestOnDemandPortArmsBehindIdleStart(t *testing.T) {
	w := newODWorld(odFIFO, 3*odTick, false)
	w.port.Q = &gatedQueue{FIFOQueue: fabric.NewFIFOQueue(0)}
	for flow := uint64(1); flow <= 2; flow++ {
		w.sw.Receive(w.arena.NewData(flow, 0, 1, 0, 128))
	}
	if err := w.port.CheckOnDemand(); err != nil {
		t.Fatal(err)
	}
	w.runTo(sim.Infinity)
	if len(w.log) != 2 || w.failed != nil {
		t.Errorf("delivered %d packets (%v), want 2", len(w.log), w.failed)
	}
}

// TestOnDemandIsWhatThePortIs pins the rule Switch.AddPort applies.
func TestOnDemandIsWhatThePortIs(t *testing.T) {
	el := sim.NewEventList()
	newPort := func(delay sim.Time) *fabric.Port {
		return fabric.NewPort(el, "p", fabric.NewFIFOQueue(0), odRate, delay)
	}
	sw := fabric.NewSwitch(el, 0, "sw")
	local, cut, zero := newPort(odTick), newPort(odTick), newPort(0)
	cut.Cross = &fabric.CrossBox{}
	for _, p := range []*fabric.Port{local, cut, zero} {
		sw.AddPort(p)
	}
	if nic := newPort(odTick); nic.OnDemand() {
		t.Error("a port no switch owns (a host NIC) is on demand")
	}
	if !local.OnDemand() || cut.OnDemand() || zero.OnDemand() {
		t.Errorf("local/cut/zero-delay on demand = %v/%v/%v, want true/false/false", local.OnDemand(), cut.OnDemand(), zero.OnDemand())
	}
	sw.EnableLossless(1<<20, 1<<19, 1<<18)
	late := newPort(odTick)
	sw.AddPort(late)
	if local.OnDemand() || late.OnDemand() {
		t.Error("a lossless switch kept an on-demand port")
	}
}

// FuzzPortOnDemand feeds arbitrary streams through the differential
// harness, seeded with the named boundary streams and a few random ones.
func FuzzPortOnDemand(f *testing.F) {
	for _, c := range odCases {
		for d := range odDelays {
			if odDelays[d] == c.delay {
				f.Add(uint8(c.kind), uint8(d), encodeOps(c.ops))
			}
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(uint8(seed), uint8(seed), encodeOps(randomODOps(seed, 60)))
	}
	f.Fuzz(func(t *testing.T, kind, delay uint8, stream []byte) {
		if len(stream) > 3*2000 {
			stream = stream[:3*2000]
		}
		compareOnDemand(t, odQueue(kind)%odQueues, odDelays[int(delay)%len(odDelays)], decodeOps(stream))
	})
}
