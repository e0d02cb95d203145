package fabric

import (
	"fmt"
	"testing"

	"ndp/internal/sim"
)

// This file checks an event-driven Port — which emits a packet's delivery
// when transmission starts and schedules the serialization-end event only
// when it has work — against an eager reference port that always schedules
// it, the transmitter as it was before the event was elided (the on-demand
// mode of a switch egress is checked against the same reference in
// port_ondemand_test.go). Both are driven with
// the same schedule of enqueues, pauses and un-pauses; the delivery
// sequence, the telemetry and the FIFO ords other events receive must be
// identical, and the event count must fall by exactly the serialization
// ends the reference saw arrive with nothing to do.

// eagerPort is the reference transmitter: one serialization-end event per
// packet, delivery scheduled from it. Test-only.
type eagerPort struct {
	q         Queue
	rateBps   int64
	delay     sim.Time
	uid       uint32
	onDequeue func()
	el        *sim.EventList
	peer      Sink

	busy, paused bool
	serializing  *Packet
	flight       Ring[flightEntry]
	emitSeq      uint64

	bytesSent   int64
	packetsSent int64
	busyTime    sim.Time
	pauseCount  int64

	// The packet on the wire: when it started and ends serializing, and
	// whether a serialization end started it (chained) or an Enqueue that
	// found the line idle. The on-demand harness reads these to prove which
	// boundary case a stream reached.
	startedAt, freeAt sim.Time
	chained           bool

	// hadWork follows the packet on the wire: the queue held a sendable
	// packet at transmit start or at some later Enqueue/un-pause, so Port
	// must have its serialization-end event in the heap. elidable counts
	// serialization ends that fired without it; idleEnds counts those that
	// in fact started nothing (a superset: a pause can take the work away
	// after the event was scheduled).
	hadWork  bool
	elidable int
	idleEnds int
}

func (p *eagerPort) Enqueue(pkt *Packet) {
	p.q.Enqueue(pkt)
	p.kick()
}

func (p *eagerPort) SetPaused(paused bool) {
	if paused && !p.paused {
		p.pauseCount++
	}
	p.paused = paused
	if !paused {
		p.kick()
	}
}

func (p *eagerPort) kick() {
	if p.paused || p.q.Empty() {
		return
	}
	if p.busy {
		p.hadWork = true
		return
	}
	pkt := p.q.Dequeue()
	ser := sim.TransmissionTime(int(pkt.Size), p.rateBps)
	p.busy = true
	p.serializing = pkt
	if p.onDequeue != nil {
		p.onDequeue()
	}
	p.hadWork = !p.paused && !p.q.Empty()
	p.bytesSent += int64(pkt.Size)
	p.packetsSent++
	p.busyTime += ser
	p.startedAt, p.freeAt, p.chained = p.el.Now(), p.el.Now()+ser, false
	p.el.ScheduleAfter(ser, p, portSerEnd)
}

func (p *eagerPort) OnEvent(arg uint64) {
	switch arg {
	case portSerEnd:
		p.busy = false
		pkt := p.serializing
		p.serializing = nil
		p.emitSeq++
		at := p.el.Now() + p.delay
		arm := p.flight.Len() == 0
		p.flight.Push(flightEntry{pkt: pkt, due: at, seq: p.emitSeq}, flightCapMax)
		if arm {
			p.el.ScheduleKeyed(at, sim.DeliveryOrd(p.uid, p.emitSeq), p, portDeliver)
		}
		if !p.hadWork {
			p.elidable++
		}
		sent := p.packetsSent
		p.kick()
		p.chained = p.packetsSent != sent
		if !p.chained {
			p.idleEnds++
		}
	case portDeliver:
		now := p.el.Now()
		for {
			e := p.flight.Pop()
			p.peer.Receive(e.pkt)
			if p.flight.Len() == 0 {
				return
			}
			next := p.flight.Peek()
			if next.due != now {
				p.el.ScheduleKeyed(next.due, sim.DeliveryOrd(p.uid, next.seq), p, portDeliver)
				return
			}
		}
	}
}

func (p *eagerPort) ReleasePackets() {
	Free(p.serializing)
	p.serializing = nil
	for p.flight.Len() > 0 {
		Free(p.flight.Pop().pkt)
	}
	for pkt := p.q.Dequeue(); pkt != nil; pkt = p.q.Dequeue() {
		Free(pkt)
	}
}

// transmitter is what the differential driver needs of either port.
type transmitter interface {
	Enqueue(*Packet)
	SetPaused(bool)
	ReleasePackets()
}

// The grid: at elideRate a 64-byte packet serializes in exactly one tick,
// every size used is a multiple of 64 bytes and every delay and op time a
// multiple of a tick, so ops land on serialization ends all the time
// instead of by luck.
const (
	elideTick  = 100 * sim.Nanosecond
	elideRate  = 64 * 8 * int64(sim.Second/elideTick)
	elideDelay = 3 * elideTick
	elideUID   = 7
)

type elideDelivery struct {
	at   sim.Time
	flow uint64
	ctrl bool
}

// elideWorld is one port under test with its event list, sink and the
// ingress-hold emulation behind OnDequeue.
type elideWorld struct {
	el    *sim.EventList
	arena *Arena
	tx    transmitter
	log   []elideDelivery
	held  []*Packet // packets an OnDequeue hook moves into the queue
	hook  *sim.Rand
	flows uint64

	lossless bool
}

// Receive logs the delivery; every fifth packet is answered on the same
// port from inside the delivery event, the way a loopback link's peer would.
func (w *elideWorld) Receive(p *Packet) {
	w.log = append(w.log, elideDelivery{at: w.el.Now(), flow: p.Flow, ctrl: p.IsControl()})
	echo := p.Flow%5 == 0
	Free(p)
	if echo {
		w.tx.Enqueue(w.packet(false, 2))
	}
}

func (w *elideWorld) packet(ctrl bool, ticks int) *Packet {
	w.flows++
	if ctrl {
		return w.arena.NewControl(Ack, w.flows, 0, 1)
	}
	return w.arena.NewData(w.flows, 0, 1, 0, int32(64*ticks))
}

// drain is the lossless switch's OnDequeue hook in miniature: it re-enters
// Enqueue on the port that is calling it, and schedules a plain event whose
// FIFO ord must stay ahead of this packet's serialization end — one to ten
// ticks out, so it often lands exactly on it.
func (w *elideWorld) drain() {
	if len(w.held) > 0 {
		pkt := w.held[0]
		w.held = w.held[1:]
		w.tx.Enqueue(pkt)
	}
	if w.hook.Intn(2) == 0 {
		ctrl := w.hook.Intn(4) == 0
		w.el.ScheduleAfter(sim.Time(1+w.hook.Intn(10))*elideTick, FuncEvent(func() { w.tx.Enqueue(w.packet(ctrl, 2)) }), 0)
	}
}

type elideQueue int

const (
	elideFIFO elideQueue = iota
	elideCtrlPrio
	elideLossless // FIFO with the OnDequeue hook
)

func (k elideQueue) String() string {
	return [...]string{"fifo", "ctrlprio", "lossless"}[k]
}

func newElideWorld(kind elideQueue, eager bool) *elideWorld {
	w := &elideWorld{el: sim.NewEventList(), hook: sim.NewRand(99), lossless: kind == elideLossless}
	w.arena = AttachArena(w.el)
	var q Queue = NewFIFOQueue(0)
	if kind == elideCtrlPrio {
		q = NewCtrlPrioQueue()
	}
	if eager {
		p := &eagerPort{q: q, rateBps: elideRate, delay: elideDelay, uid: elideUID, el: w.el, peer: w}
		if kind == elideLossless {
			p.onDequeue = w.drain
		}
		w.tx = p
	} else {
		p := NewPort(w.el, "dut", q, elideRate, elideDelay)
		p.UID = elideUID
		p.Connect(w)
		if kind == elideLossless {
			p.OnDequeue = w.drain
		}
		w.tx = p
	}
	return w
}

// elideOp is one step of a schedule. How it reaches the port decides which
// side of a serialization end at the same instant it falls on.
type elideOp struct {
	at    sim.Time
	kind  int // opData, opCtrl, opHold, opPause, opResume
	ticks int // data size in ticks
	via   int // viaPlain … viaSetup
	lag   sim.Time
}

const (
	opData = iota
	opCtrl
	opHold
	opPause
	opResume
)

const (
	viaPlain    = iota // scheduled up front: FIFO ord earlier than any serialization end
	viaLate            // scheduled at run time, lag before it fires: FIFO ord later than earlier transmit starts
	viaDelivery        // delivery-class key: fires before every plain event of its instant
	viaPFC             // PFC-class key: fires after every plain event of its instant
	viaSetup           // called between RunUntil(at) and the next slice, outside any event
)

func (w *elideWorld) apply(op elideOp) {
	switch op.kind {
	case opData:
		w.tx.Enqueue(w.packet(false, op.ticks))
	case opCtrl:
		w.tx.Enqueue(w.packet(true, 1))
	case opHold:
		if !w.lossless {
			w.tx.Enqueue(w.packet(false, op.ticks))
			return
		}
		w.held = append(w.held, w.packet(false, op.ticks))
	case opPause:
		w.tx.SetPaused(true)
	case opResume:
		w.tx.SetPaused(false)
	}
}

// run installs the schedule, runs it (stopping for the set-up ops), and
// leaves the port resumed so that everything drains.
func (w *elideWorld) run(ops []elideOp) {
	var setups []elideOp
	for i, op := range ops {
		op := op
		switch op.via {
		case viaPlain:
			w.el.Schedule(op.at, FuncEvent(func() { w.apply(op) }), 0)
		case viaLate:
			w.el.Schedule(op.at-op.lag, FuncEvent(func() { w.el.ScheduleAfter(op.lag, FuncEvent(func() { w.apply(op) }), 0) }), 0)
		case viaDelivery:
			w.el.ScheduleKeyed(op.at, sim.DeliveryOrd(elideUID+1, uint64(i)), FuncEvent(func() { w.apply(op) }), 0)
		case viaPFC:
			w.el.ScheduleKeyed(op.at, sim.PFCOrd(elideUID, uint64(i)), FuncEvent(func() { w.apply(op) }), 0)
		case viaSetup:
			setups = append(setups, op) // ops are generated in time order
		}
	}
	for _, op := range setups {
		w.el.RunUntil(op.at)
		w.apply(op)
	}
	w.el.Run()
	w.tx.SetPaused(false)
	w.el.Run()
	for _, pkt := range w.held {
		Free(pkt)
	}
	w.held = nil
}

func randomElideOps(seed uint64, n int) []elideOp {
	r := sim.NewRand(seed)
	ops := make([]elideOp, n)
	at := sim.Time(0)
	for i := range ops {
		// Mostly short gaps, so the port is usually mid-packet, with the
		// odd long one for it to drain and go idle.
		gap := r.Intn(4)
		if r.Intn(8) == 0 {
			gap = 10 + r.Intn(30)
		}
		at += sim.Time(gap) * elideTick
		op := elideOp{at: at, ticks: []int{1, 2, 5, 10}[r.Intn(4)], via: r.Intn(5)}
		switch k := r.Intn(10); {
		case k < 5:
			op.kind = opData
		case k < 7:
			op.kind = opCtrl
		case k < 8:
			op.kind = opHold
		case k < 9:
			op.kind = opPause
		default:
			op.kind = opResume
		}
		if op.via == viaLate {
			op.lag = sim.Time(1+r.Intn(10)) * elideTick
			if op.lag > op.at {
				op.lag = op.at
			}
		}
		ops[i] = op
	}
	return ops
}

// comparePorts runs one schedule through both ports and checks everything
// the issue calls the contract.
func comparePorts(t *testing.T, kind elideQueue, ops []elideOp) (elided int) {
	t.Helper()
	ref, dut := newElideWorld(kind, true), newElideWorld(kind, false)
	ref.run(ops)
	dut.run(ops)
	eager, port := ref.tx.(*eagerPort), dut.tx.(*Port)

	if len(ref.log) != len(dut.log) {
		t.Fatalf("delivered %d packets, reference %d", len(dut.log), len(ref.log))
	}
	for i := range ref.log {
		if ref.log[i] != dut.log[i] {
			t.Fatalf("delivery %d = %+v, reference %+v", i, dut.log[i], ref.log[i])
		}
	}
	if port.BytesSent != eager.bytesSent || port.BusyTime != eager.busyTime || port.PauseCount != eager.pauseCount {
		t.Errorf("telemetry bytes/busy/pauses = %d/%v/%d, reference %d/%v/%d",
			port.BytesSent, port.BusyTime, port.PauseCount, eager.bytesSent, eager.busyTime, eager.pauseCount)
	}
	if dut.el.Now() != ref.el.Now() {
		t.Errorf("clock ends at %v, reference %v", dut.el.Now(), ref.el.Now())
	}
	if got, want := ref.el.Executed()-dut.el.Executed(), uint64(eager.elidable); got != want {
		t.Errorf("fired %d fewer events than the reference, want exactly its %d workless serialization ends",
			got, want)
	}
	if eager.elidable > eager.idleEnds {
		t.Errorf("reference counted %d workless serialization ends but only %d idle ones", eager.elidable, eager.idleEnds)
	}
	if eager.pauseCount == 0 && eager.elidable != eager.idleEnds {
		t.Errorf("no pause in the schedule, yet %d idle serialization ends and %d elided", eager.idleEnds, eager.elidable)
	}
	if ref.arena.InUse() != 0 || dut.arena.InUse() != 0 {
		t.Errorf("packets in use after the drain: %d, reference %d", dut.arena.InUse(), ref.arena.InUse())
	}
	return eager.elidable
}

func TestPortElisionMatchesEagerReference(t *testing.T) {
	for _, kind := range []elideQueue{elideFIFO, elideCtrlPrio, elideLossless} {
		t.Run(kind.String(), func(t *testing.T) {
			elided := 0
			for seed := uint64(1); seed <= 40; seed++ {
				elided += comparePorts(t, kind, randomElideOps(seed, 300))
			}
			if elided == 0 {
				t.Error("no schedule elided a single event: the test exercises nothing")
			}
		})
	}
}

// TestPortElisionBoundary pins the four ways something can reach the port
// at exactly the instant its packet finishes serializing. A data packet and
// then a control packet arrive together over a control-priority queue: if
// the port is still busy both queue and the control packet overtakes, if it
// is idle the data packet is already on the wire.
func TestPortElisionBoundary(t *testing.T) {
	const freeAt = 5 * elideTick // a 5-tick packet enqueued at time zero
	cases := []struct {
		name      string
		via       int
		ctrlFirst bool
	}{
		{"delivery-class arrival queues behind the wake", viaDelivery, true},
		{"earlier-ord plain event queues behind the wake", viaPlain, true},
		{"later-ord plain event finds the port idle", viaLate, false},
		{"set-up code after RunUntil(freeAt) finds the port idle", viaSetup, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ops := []elideOp{
				{at: 0, kind: opData, ticks: 5, via: viaSetup},
				// Scheduled from an event after the transmit start, so its
				// FIFO ord is later than the serialization end's.
				{at: freeAt, kind: opData, ticks: 2, via: c.via, lag: 2 * elideTick},
				{at: freeAt, kind: opCtrl, via: c.via, lag: 2 * elideTick},
			}
			if c.via == viaSetup {
				// One call site: data then control, outside any event.
				ops[1].via, ops[2].via = viaSetup, viaSetup
			}
			comparePorts(t, elideCtrlPrio, ops)

			w := newElideWorld(elideCtrlPrio, false)
			w.run(ops)
			if len(w.log) != 3 {
				t.Fatalf("delivered %d packets, want 3", len(w.log))
			}
			if got := w.log[1].ctrl; got != c.ctrlFirst {
				t.Errorf("control packet sent first = %v, want %v", got, c.ctrlFirst)
			}
		})
	}
}

// TestPortReleaseMidSerialization: the packet on the wire now lives in the
// flight ring from transmit start, and teardown must free it exactly once
// (a second free panics in the arena; a missed one leaves InUse non-zero).
func TestPortReleaseMidSerialization(t *testing.T) {
	for _, eager := range []bool{true, false} {
		t.Run(fmt.Sprintf("eager=%v", eager), func(t *testing.T) {
			w := newElideWorld(elideFIFO, eager)
			for i := 0; i < 3; i++ {
				w.tx.Enqueue(w.packet(false, 10))
			}
			w.el.RunUntil(12 * elideTick) // first packet in propagation, second on the wire, third queued
			if got := w.arena.InUse(); got != 3 {
				t.Fatalf("%d packets in use mid-run, want 3", got)
			}
			w.tx.ReleasePackets()
			if got := w.arena.InUse(); got != 0 {
				t.Fatalf("%d packets in use after ReleasePackets, want 0", got)
			}
		})
	}
}
