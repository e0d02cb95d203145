package fabric

import (
	"ndp/internal/sim"
)

// Sink receives fully-arrived packets: the input side of a switch, a host
// stack, or an ingress queue in lossless mode.
type Sink interface {
	Receive(p *Packet)
}

// Port is a store-and-forward link transmitter: it drains its Queue one
// packet at a time at RateBps, then delivers each packet to the peer Sink
// after the link propagation Delay. Because delivery is due at
// serialization-end + propagation, downstream nodes see packets only when
// fully received, which is the store-and-forward behaviour the paper's RTT
// arithmetic (7.2µs per 9KB hop at 10Gb/s) assumes.
//
// Both times are known when transmission starts, so the delivery is emitted
// then (start), and the serialization end is a key, (freeAt, freeOrd), not
// necessarily an event: the port is busy until that key has fired
// (sim.EventList.Fired) and a port whose queue stays empty just becomes idle
// when it passes. What happens when the key passes with a packet waiting
// (wake) depends on what the port is, fixed when it is wired.
//
// On demand — a switch egress port whose peer is on the same event list
// (Switch.AddPort: no Cross, no OnDequeue, Delay > 0). Nothing is scheduled.
// The next transmission is started late but as of freeAt, never as of Now, by
// the catch-up loop (catchUp), which runs at the top of Enqueue, before the
// queue sees the arrival (trim, mark and drop decisions read occupancy), and
// at the top of the port's own delivery event. That event always exists
// while wake is set: the serializing packet is in flight, due at freeAt +
// Delay > freeAt, and every packet started late is due strictly after the one
// being delivered, so no delivery is ever scheduled into the past. A
// backlogged port therefore fires one event per packet, not two. It is exact
// because a switch egress queue is only ever fed from link-delivery events
// (ord class 0, cross-shard injections and bounced headers nested in one
// included), which sort before every plainly scheduled key of their instant:
// the serialization end commutes with everything else that happens at
// freeAt, an arrival at exactly freeAt still queues behind it, and one a
// picosecond later finds the next packet already started. Queue disciplines
// are time-free, and moving a ReserveOrd call shifts later FIFO ords without
// reordering them. Enqueue checks the premise (it panics inside an event of
// a later class); readers of the transmit side call Sync first.
//
// Event-driven — everything else, with the serialization end scheduled under
// its key once the queue holds a packet the port may send next. Host NICs:
// pull pacers, RTO and pacing timers and flow starts enqueue from plain and
// command events, whose tie against freeOrd decides whether a packet queues
// or goes straight out. Lossless ports: the OnDequeue hook and PFC pause act
// at the serialization end itself. Cut ports (Cross != nil): deliveries go
// to the mailbox, so no local event carries the catch-up, and the emission
// must reach the mailbox inside the window it belongs to. Every scheduled
// event keeps the key it would have had with the event always present, so
// eliding the idle ones changes no result.
type Port struct {
	// from and to name the port, formatted only when read (String): the
	// labels of the node it transmits from and of the node its link feeds,
	// or, for a port built by NewPort, a literal name in from alone.
	from, to *Label

	Q       Queue
	RateBps int64
	Delay   sim.Time

	// UID is the port's canonical identity for equal-timestamp delivery
	// ordering (sim.DeliveryOrd). Topology builders assign UIDs in
	// construction order, which is identical no matter how the topology is
	// sharded — the keystone of shard-count-independent results. Ports
	// built outside a topology (unit tests) may leave it zero.
	UID uint32

	// Transmitter state bits, kept here so they share UID's word (a FatTree
	// has six ports per host, and this keeps Port in its allocation size
	// class). paused is the PFC state. wake says a packet waits for the
	// serialization end: the event is in the heap, or, on demand, catchUp owes
	// the start. armed says a delivery event is in the heap. onDemand is the
	// mode (see the type comment).
	paused, wake, armed, onDemand bool

	// Cross, when set, routes this port's deliveries through a cross-shard
	// mailbox instead of the local event list: the peer sink lives in
	// another shard, and the windowed runner injects the delivery at the
	// next window boundary.
	Cross *CrossBox

	// OnDequeue, when set, runs after each packet leaves the queue. The
	// lossless switch uses it to pull held ingress packets forward.
	OnDequeue func()

	el   *sim.EventList
	peer Sink

	// The packet on the wire finishes serializing at the key (freeAt,
	// freeOrd): the port is busy until that key has fired, and the
	// serialization-end event is scheduled under it when there is one.
	freeAt  sim.Time
	freeOrd uint64

	// flight holds packets on the wire or in propagation toward the peer,
	// in transmission order, each with its due time. emitSeq counts the
	// emissions, one per packet, and a port that pushes to flight pushes
	// every one there (a cut port pushes none), so the head's emission
	// sequence is emitSeq - flight.Len() + 1 and no entry stores its own.
	// At most the head of flight has a delivery event in the heap (armed):
	// the delivery handler re-arms for the next entry when it fires, and
	// drains consecutive entries due at the same instant in one event
	// (burst). Keyed order depends only on (time, ord) and per-port ords are
	// consecutive, so chaining is bit-identical to scheduling every delivery
	// up front — while keeping heap residency at one event per busy port
	// instead of one per in-flight packet. While a wake is pending the
	// packet still serializing is left for the wake to arm, so the port
	// never has more heap entries than a wake plus one delivery. An on-demand
	// port keeps the head armed whenever the flight is non-empty: that event is
	// what carries its catch-up.
	flight  Ring[flightEntry]
	emitSeq uint64

	// Telemetry. The packets sent are emitSeq (PacketsSent).
	PauseCount   int64 // times this port was paused (PFC)
	SerEndEvents int64 // serialization-end events fired (none on demand)
}

// PacketsSent returns how many packets the port has put on the wire: its
// emission count, one per transmission started, read after Sync.
func (p *Port) PacketsSent() int64 { return int64(p.emitSeq) }

// NewPort creates a transmitter with the given queue discipline, line rate
// in bits per second and one-way propagation delay.
func NewPort(el *sim.EventList, name string, q Queue, rateBps int64, delay sim.Time) *Port {
	label := named(name)
	p := &Port{Q: q}
	p.Init(el, &label, nil, rateBps, delay)
	return p
}

// Init sets up a port built in place, as a topology builds its ports from
// one slab: it transmits from the node labelled from toward the node
// labelled to. The builder attaches the queue (Q) and the peer (Connect).
func (p *Port) Init(el *sim.EventList, from, to *Label, rateBps int64, delay sim.Time) {
	p.from, p.to, p.el, p.RateBps, p.Delay = from, to, el, rateBps, delay
}

// AppendName appends the port's name to b: "tor0.1->agg0.0" for a port a
// topology wired.
func (p *Port) AppendName(b []byte) []byte {
	b = p.from.AppendTo(b)
	if p.to != nil {
		b = append(b, "->"...)
		b = p.to.AppendTo(b)
	}
	return b
}

// String names the port in panics and traces.
func (p *Port) String() string { return string(p.AppendName(nil)) }

// Connect attaches the receiving end of the link.
func (p *Port) Connect(peer Sink) { p.peer = peer }

// Peer returns the receiving end of the link.
func (p *Port) Peer() Sink { return p.peer }

// Enqueue offers a packet to the port's queue and starts transmission if
// the line is idle.
func (p *Port) Enqueue(pkt *Packet) {
	if p.onDemand {
		if p.el.FiringAfterDeliveries() {
			panic("fabric: on-demand port " + p.String() + " fed from an event that is not a link delivery")
		}
		if p.wake {
			p.catchUp()
		}
	}
	p.Q.Enqueue(pkt)
	p.kick()
}

// SetPaused pauses or resumes the transmitter (PFC). Pausing takes effect
// at the next packet boundary; the in-flight packet always completes.
func (p *Port) SetPaused(paused bool) {
	if p.onDemand {
		panic("fabric: PFC on on-demand port " + p.String())
	}
	if paused && !p.paused {
		p.PauseCount++
	}
	p.paused = paused
	if !paused {
		p.kick()
	}
}

// Busy reports whether a packet is currently serializing.
func (p *Port) Busy() bool {
	p.Sync()
	return !p.el.Fired(p.freeAt, p.freeOrd)
}

// Sync brings the transmit side up to the clock: an on-demand port starts
// the transmissions whose turn has come. Anything that reads PacketsSent(),
// or changes RateBps mid-run, calls it first; on an event-driven port there
// is never anything to do.
func (p *Port) Sync() {
	if p.onDemand && p.wake {
		p.catchUp()
	}
}

// catchUp starts every waiting packet whose predecessor has finished
// serializing, each as of that instant. Callers test wake first: the loop
// keeps this from being inlined, and most calls find nothing owed.
func (p *Port) catchUp() {
	for p.wake && p.el.Fired(p.freeAt, p.freeOrd) {
		p.start(p.freeAt)
	}
}

// Port event kinds (the arg of sim.Handler events).
const (
	portSerEnd  = iota // the serializing packet has fully left the NIC and another waits
	portDeliver        // the oldest in-flight packet reached the peer
	portPause          // a PFC XOFF from the downstream ingress reached this transmitter
	portResume         // the matching XON
)

// kick starts the next transmission if the line is idle, or makes sure the
// serialization end will if it is not.
func (p *Port) kick() {
	if p.paused || p.Q.Empty() {
		return
	}
	if !p.el.Fired(p.freeAt, p.freeOrd) {
		if !p.wake {
			p.wake = true
			if !p.onDemand {
				p.el.ScheduleKeyed(p.freeAt, p.freeOrd, p, portSerEnd)
			}
		}
		return
	}
	p.start(p.el.Now())
}

// start puts the next queued packet on the wire as of at — now, or the
// serialization end an on-demand port is catching up on — and emits its
// delivery.
func (p *Port) start(at sim.Time) {
	pkt := p.Q.Dequeue()
	if pkt == nil {
		p.wake = false
		return
	}
	ser := sim.TransmissionTime(int(pkt.Size), p.RateBps)
	// Busy, and the wake spoken for, before invoking OnDequeue: the lossless
	// drain hook can re-enter Enqueue -> kick on this same port, which must
	// neither start a second packet nor schedule the wake before its ord is
	// reserved. The ord is taken after the hook so that events the hook
	// schedules keep their place ahead of the serialization end.
	p.freeAt, p.freeOrd, p.wake = at+ser, ^uint64(0), true
	if p.OnDequeue != nil {
		p.OnDequeue()
	}
	p.freeOrd = p.el.ReserveOrd()
	p.wake = !p.paused && !p.Q.Empty()
	if p.wake && !p.onDemand {
		p.el.ScheduleKeyed(p.freeAt, p.freeOrd, p, portSerEnd)
	}
	p.emitSeq++
	due := p.freeAt + p.Delay
	if p.Cross != nil {
		if p.onDemand {
			panic("fabric: on-demand port " + p.String() + " crosses a shard cut")
		}
		p.Cross.AddDelivery(due, sim.DeliveryOrd(p.UID, p.emitSeq), pkt, p.peer)
		return
	}
	// The link sizes the first flight buffer of a port no topology carved
	// (NewPort). Worked out only when there is none yet: as a plain Push
	// argument it cost a division per packet hop.
	first := 0
	if p.flight.Cap() == 0 {
		first = flightCap(p.Delay, p.RateBps)
	}
	p.flight.Push(flightEntry{pkt: pkt, due: due}, first)
	if !p.armed && (p.onDemand || !p.wake) {
		p.arm()
	}
}

// carveRings counts (counting) or carves the port's flight and its queue's
// rings from its domain's slabs (CarveRings).
func (p *Port) carveRings(counting bool) {
	a := AttachArena(p.el)
	if p.Cross == nil {
		first := flightCap(p.Delay, p.RateBps)
		if counting {
			a.flights.count(first)
		} else {
			a.flights.carve(&p.flight, first)
		}
	}
	if q, ok := p.Q.(CarvedQueue); ok {
		q.CarveRings(RingCarver{slab: &a.queues, counting: counting})
	}
}

// arm schedules the delivery event for the head of flight.
func (p *Port) arm() {
	seq := p.emitSeq - uint64(p.flight.Len()) + 1
	p.armed = true
	p.el.ScheduleKeyed(p.flight.Peek().due, sim.DeliveryOrd(p.UID, seq), p, portDeliver)
}

// OnEvent advances the port's transmit pipeline (sim.Handler).
func (p *Port) OnEvent(arg uint64) {
	switch arg {
	case portSerEnd:
		p.SerEndEvents++
		p.wake = false
		if !p.armed && p.flight.Len() > 0 {
			p.arm()
		}
		p.kick()
	case portDeliver:
		// Catch up while still armed and while the entry being delivered
		// still heads the flight: start must not arm it a second time.
		p.Sync()
		p.armed = false
		now := p.el.Now()
		for {
			e := p.flight.Pop()
			if p.peer != nil {
				p.peer.Receive(e.pkt)
			} else {
				Free(e.pkt)
			}
			if p.flight.Len() == 0 || p.armed {
				// armed: the peer sent on this very port (a loopback) and
				// kick has armed the flight already.
				return
			}
			if p.flight.Peek().due != now {
				// The last entry is still serializing while a wake event
				// is pending; the wake arms it.
				if p.onDemand || !(p.wake && p.flight.Len() == 1) {
					p.arm()
				}
				return
			}
			// Burst: the next delivery is due at this same instant with the
			// consecutive per-port ord — no other event can key between
			// (UID, seq) and (UID, seq+1) — so popping it here is exactly
			// the order the heap would have produced.
		}
	case portPause, portResume:
		p.SetPaused(arg == portPause)
	}
}

// ReleasePackets releases every packet the port still holds — the flight (the
// packet on the wire and those in propagation) and the queued backlog — so
// a run stopped mid-traffic still accounts for every arena packet. Teardown
// only.
func (p *Port) ReleasePackets() {
	for p.flight.Len() > 0 {
		Release(p.flight.Pop().pkt)
	}
	if p.Q != nil {
		for pkt := p.Q.Dequeue(); pkt != nil; pkt = p.Q.Dequeue() {
			Release(pkt)
		}
	}
}

// flightEntry is one packet on the wire or in propagation: what to deliver
// and when it arrives. Its emission sequence, which keys the delivery order,
// follows from its place in the flight (arm).
type flightEntry struct {
	pkt *Packet
	due sim.Time
}

// flightCap returns the size of a link's first flight buffer: what the link
// can hold — one header-sized packet per serialization time across the
// propagation delay, plus the one serializing and the one being delivered
// (the ring rounds it up to a power of two) — and no more than flightCapMax:
// a long link that is rarely full doubles its way up instead. Packets
// smaller than a header (tests send zero-sized ones) double it too.
func flightCap(delay sim.Time, rateBps int64) int {
	ser := sim.TransmissionTime(HeaderSize, rateBps)
	if ser <= 0 || delay/ser+2 >= flightCapMax {
		return flightCapMax
	}
	return int(delay/ser) + 2
}

// flightCapMax is the most a flight's first buffer takes up front.
const flightCapMax = 64
