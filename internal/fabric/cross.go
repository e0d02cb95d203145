package fabric

import (
	"ndp/internal/sim"
)

// CrossBox is the mailbox of one directed shard pair in a sharded
// simulation, double-buffered so that each side is only ever touched from
// one core at a time: ports (and the command layer) of the source shard
// append to the write side during a window; at the window boundary the
// coordinator publishes the write side as the read side (Publish, a slice
// swap); and the destination shard moves the read side into its own event
// list on its own goroutine when its next window starts (DrainPublished),
// so the heap pushes land in the cache that will pop them. No locking is
// needed: the window barrier's happens-before edges order the three.
type CrossBox struct {
	// entries is the write side and earliest the smallest At in it.
	entries  []CrossEntry
	earliest sim.Time
	// The source appends while the destination drains: keep the two sides
	// on different cache lines.
	_ [64]byte
	// ready is the read side and readyAt the smallest At in it.
	ready   []CrossEntry
	readyAt sim.Time
}

// CrossEntry is one boundary crossing: a packet delivery into a Sink, or —
// H non-nil — a handler call with its argument: a deferred command
// (Cluster.Defer) or a PFC pause/resume for an upstream Port living on the
// destination shard. Every crossing is a value: nothing in an entry is a
// closure, so emitting one allocates nothing and an entry could be written
// to a wire. At and Ord carry the exact timestamp and canonical equal-time
// key the event would have had on a single list. The entry is one cache
// line (TestCrossEntryFitsACacheLine): the mailboxes are copied twice per
// crossing, and a wider entry showed as bytes on the sharded benchmark.
type CrossEntry struct {
	At   sim.Time
	Ord  uint64
	Pkt  *Packet
	Sink Sink
	H    sim.Handler
	Arg  uint64
}

func (b *CrossBox) add(e CrossEntry) {
	if len(b.entries) == 0 || e.At < b.earliest {
		b.earliest = e.At
	}
	b.entries = append(b.entries, e) // the two sides swap and are reused every lookahead window
}

// AddDelivery appends a packet delivery crossing the shard boundary. The
// packet leaves the source shard's arena here, on the source's goroutine,
// and joins the destination's when it is drained there; in between the
// mailbox holds it (Packets).
func (b *CrossBox) AddDelivery(at sim.Time, ord uint64, pkt *Packet, sink Sink) {
	pkt.park()
	b.add(CrossEntry{At: at, Ord: ord, Pkt: pkt, Sink: sink})
}

// AddCommand appends a handler call crossing the shard boundary: h.OnEvent(arg)
// runs at exactly at on the destination's list. Deferred commands use it
// with a CommandOrd key, and PFC transitions toward an upstream transmitter
// on the other side with a PFCOrd key and the Port itself as the handler —
// those apply at emission + link delay, the same instant they would on a
// single list, and the link delay is at least the pair lookahead because the
// PFC reverse channel is itself registered as a cross link, so the
// conservative window never needs to be narrowed for pause state.
func (b *CrossBox) AddCommand(at sim.Time, ord uint64, h sim.Handler, arg uint64) {
	b.add(CrossEntry{At: at, Ord: ord, H: h, Arg: arg})
}

// Publish hands everything added since the last Publish to the read side
// and returns the earliest At waiting there (Infinity when nothing is).
// The coordinator calls it at the window boundary. Normally the destination
// has drained the read side and the two slices just swap; entries it has
// not drained yet (published between runs) are kept and appended to.
func (b *CrossBox) Publish() sim.Time {
	if len(b.entries) > 0 {
		if len(b.ready) == 0 {
			b.ready, b.entries = b.entries, b.ready
			b.readyAt = b.earliest
		} else {
			b.ready = append(b.ready, b.entries...)
			clear(b.entries)
			b.entries = b.entries[:0]
			b.readyAt = min(b.readyAt, b.earliest)
		}
	}
	if len(b.ready) == 0 {
		return sim.Infinity
	}
	return b.readyAt
}

// DrainPublished moves the read side into the destination shard's inbox;
// entries added since the last Publish stay where they are. It runs on the
// destination's goroutine. Injection order is irrelevant — the heap orders
// by (At, Ord) — so no sort is needed. An entry timed before the
// destination clock means the emitter violated the conservative lookahead
// contract (delivery at least one lookahead after emission); the
// event-list clamp would silently turn that into shard-layout-dependent
// timing, so it panics instead.
func (b *CrossBox) DrainPublished(dst *Inbox) {
	for i := range b.ready {
		e := b.ready[i]
		b.ready[i] = CrossEntry{}
		if e.At < dst.el.Now() {
			panic("fabric: cross-shard entry timed before the destination clock (lookahead contract violated)")
		}
		// From here on the destination shard's goroutine delivers and
		// frees the packet, so it must free into the destination arena.
		e.Pkt.adopt(dst.arena)
		dst.inject(e)
	}
	b.ready = b.ready[:0]
}

// Drain publishes and drains in one step: every pending entry moves into
// the destination shard's inbox. For callers that own both sides.
func (b *CrossBox) Drain(dst *Inbox) {
	b.Publish()
	b.DrainPublished(dst)
}

// Len reports pending entries on both sides (tests and telemetry).
func (b *CrossBox) Len() int { return len(b.entries) + len(b.ready) }

// Packets reports the packets waiting in the box: they have left the
// source arena's InUse count and not yet joined the destination's.
func (b *CrossBox) Packets() int64 {
	var n int64
	for _, side := range [2][]CrossEntry{b.entries, b.ready} {
		for i := range side {
			if side[i].Pkt != nil {
				n++
			}
		}
	}
	return n
}

// ReleasePackets releases any packets still waiting in the box (a run stopped
// mid-traffic before the next barrier) and empties it.
func (b *CrossBox) ReleasePackets() {
	for _, side := range [2][]CrossEntry{b.entries, b.ready} {
		for i := range side {
			if p := side[i].Pkt; p != nil {
				p.adopt(p.owner)
				Release(p)
			}
			side[i] = CrossEntry{}
		}
	}
	b.entries, b.ready = b.entries[:0], b.ready[:0]
}

// Inbox is one shard's receiving side of the cross-shard exchange: a slot
// arena plus a typed event per injected entry, so neither packet deliveries
// nor commands allocate on their way across the boundary. Slots recycle as
// entries fire, so steady-state crossings allocate nothing.
type Inbox struct {
	el      *sim.EventList
	arena   *Arena
	entries []CrossEntry
	free    []int32 // recycled entry slots: a LIFO stack (the slot freed last is the warm one), not a fabric.Ring
}

// NewInbox builds the inbox feeding one shard's event list. It attaches the
// shard's packet arena, the destination of every ownership transfer drained
// into this inbox.
func NewInbox(el *sim.EventList) *Inbox { return &Inbox{el: el, arena: AttachArena(el)} }

// inject stores the entry in a slot and schedules its keyed firing.
func (ib *Inbox) inject(e CrossEntry) {
	var slot int32
	if n := len(ib.free); n > 0 {
		slot = ib.free[n-1]
		ib.free = ib.free[:n-1]
		ib.entries[slot] = e
	} else {
		slot = int32(len(ib.entries))
		ib.entries = append(ib.entries, e)
	}
	ib.el.ScheduleKeyed(e.At, e.Ord, (*inboxSlot)(ib), uint64(slot))
}

// inboxSlot is the Inbox as a sim.Handler. It is unexported so that inject
// is the only code that can schedule a mailbox: an Inbox handed to a plain
// Schedule, whose equal-time order depends on who scheduled first and so on
// the shard layout, does not compile.
type inboxSlot Inbox

// OnEvent fires one injected entry.
func (ib *inboxSlot) OnEvent(arg uint64) {
	e := ib.entries[arg]
	ib.entries[arg] = CrossEntry{}
	ib.free = append(ib.free, int32(arg))
	switch {
	case e.H != nil:
		e.H.OnEvent(e.Arg)
	case e.Sink != nil:
		e.Sink.Receive(e.Pkt)
	default:
		Free(e.Pkt) // a delivery into an unconnected port
	}
}

// ReleasePackets releases any injected packet deliveries that have not fired
// yet (a run stopped mid-traffic). Slots are zeroed, not recycled — the
// inbox is being torn down.
func (ib *Inbox) ReleasePackets() {
	for i := range ib.entries {
		if ib.entries[i].Sink != nil || ib.entries[i].Pkt != nil {
			Release(ib.entries[i].Pkt)
		}
		ib.entries[i] = CrossEntry{}
	}
}
