package fabric

import "ndp/internal/sim"

// AttachArena returns the packet arena owned by el's scheduling domain,
// creating and attaching one on first use. Topology construction calls it
// once per shard; components cache the result at construction time (it is
// a map-free field read, but the hot path should not pay even that).
func AttachArena(el *sim.EventList) *Arena {
	if a, ok := el.Allocator().(*Arena); ok {
		return a
	}
	a := NewArena()
	el.SetAllocator(a)
	return a
}

// Arena is a shard-local packet allocator: a chunked slab feeding a plain
// free-list stack. Each shard's event list owns exactly one Arena
// (AttachArena), and every component scheduled on that list allocates from
// it, so packets are freed by the same goroutine that allocated them —
// after a cross-shard handoff, by the goroutine that adopted them out of
// the mailbox. That single-owner discipline is
// what lets Get/Free run without locks, without sync.Pool's per-P caches,
// and without the GC draining the pool between runs.
//
// NewData/NewControl write the whole packet once (no zero-then-set). The
// InUse counter tracks outstanding packets; a simulation that ends with
// InUse() != 0 has leaked, and the golden suite asserts this for every
// registry scenario.
//
// A closed network's arenas serve the next network (Recycle): an arena
// keeps the chunks it grew and the most packets it held at once, its peak.
//
// An arena also keeps its domain's ring slabs: every switch-queue, NIC-band
// and flight ring of a topology's ports takes its first buffer from the slab
// of the domain the port runs on (CarveRings), so a network built on a
// recycled domain allocates no port buffer.
type Arena struct {
	// free is a LIFO stack, not a fabric.Ring: the packet freed last is the
	// one still in cache, and order among free packets means nothing.
	free   []*Packet
	inUse  int64
	peak   int64
	chunks []*[arenaChunk]Packet

	queues  ringSlab[*Packet]
	flights ringSlab[flightEntry]
}

// arenaChunk is how many packets one slab growth adds. Chunks amortize both
// the allocation and the GC scan cost (one backing array per 512 packets).
// 512 one-line packets are 32 KiB, which the Go allocator serves as a large
// object, page-aligned, so every packet starts on a cache line of its own.
// Half that is not: a 16 KiB array of pointer-holding structs gets an 8-byte
// allocation header in front and the 18 KiB size class, which starts every
// packet 8 bytes into a line and spends 2 KiB a chunk on padding.
const arenaChunk = 512

// NewArena returns an empty arena; the first Get grows the initial chunk.
// AttachArena builds one per event list, on first attach, and caches it.
func NewArena() *Arena { return &Arena{} }

// take pops a recycled packet (growing a fresh slab when empty) without
// initializing it. Callers must overwrite every field before releasing the
// packet into the simulation. take inlines into every allocation at a cost
// of 79 against the compiler's 80 (a call to an out-of-line grow costs
// more than the loop), which is why the popped slot is not cleared: its
// packet is in a chunk the arena holds anyway, and Recycle clears the array
// past what it rebuilds.
func (a *Arena) take() *Packet {
	if len(a.free) == 0 {
		chunk := new([arenaChunk]Packet)
		a.chunks = append(a.chunks, chunk)
		for i := range chunk {
			chunk[i].freed = true
			a.free = append(a.free, &chunk[i])
		}
	}
	n := len(a.free) - 1
	p := a.free[n]
	a.free = a.free[:n]
	a.inUse++
	a.peak = max(a.peak, a.inUse)
	return p
}

// Get returns a packet owned by this arena, zeroed but destination-routed
// (Route -1), as every packet starts.
func (a *Arena) Get() *Packet {
	p := a.take()
	*p = Packet{owner: a, Route: -1}
	return p
}

// NewControl builds a destination-routed control packet (ACK/NACK/PULL/CNP)
// from this arena, sized at HeaderSize. One whole-struct store: no
// zero-then-set.
func (a *Arena) NewControl(t PacketType, flow uint64, src, dst int32) *Packet {
	p := a.take()
	*p = Packet{owner: a, Type: t, Route: -1, Flow: flow, Src: src, Dst: dst, Size: HeaderSize}
	return p
}

// NewData builds a destination-routed payload packet of the given total wire
// size from this arena. One whole-struct store: no zero-then-set.
func (a *Arena) NewData(flow uint64, src, dst int32, seq int64, size int32) *Packet {
	p := a.take()
	*p = Packet{owner: a, Type: Data, Route: -1, Flow: flow, Src: src, Dst: dst, Seq: seq, Size: size, DataSize: size}
	return p
}

// put returns a packet to the free-list. Double frees corrupt a free-list
// silently (the same packet handed to two future allocations), so they
// panic here instead.
func (a *Arena) put(p *Packet) {
	a.settle(p)
	// Grows only when more packets are free at once than ever before: take
	// makes room one chunk at a time, not for every packet it handed out.
	a.free = append(a.free, p)
}

// settle takes a packet off the arena's books: the InUse count, and the flag
// a second free panics on.
func (a *Arena) settle(p *Packet) {
	if p.freed {
		panic("fabric: double free of packet " + p.String())
	}
	p.freed = true
	a.inUse--
}

// InUse reports the packets allocated from this arena and not yet freed.
// Zero after a completed run means no packet leaked.
func (a *Arena) InUse() int64 { return a.inUse }

// Peak reports the most packets the arena has held at once since it was
// built or last recycled.
func (a *Arena) Peak() int64 { return a.peak }

// Recycle readies the arena of a closed simulation for the next one. It
// keeps the chunks its peak needed — ceil(peak/arenaChunk), the first ones
// it grew — drops the rest, and rebuilds the free-list from exactly the kept
// chunks' packets, each marked freed and owned by nobody, so nothing of the
// old simulation stays reachable through them. The free-list keeps its
// array, a pointer per packet (an eighth of a packet's bytes), cleared past
// the rebuilt part so that it pins no dropped chunk. Packets migrate between
// the shards' arenas, so a free-list may hold another arena's packets:
// Recycle is only consistent when every arena of a network whose packets
// are all settled (no InUse, nothing in a mailbox) is recycled at once,
// which is what topo.Network.Close does. The ring slabs are kept, their
// carved span cleared for the next network's CarveRings.
func (a *Arena) Recycle() {
	keep := min(int((a.peak+arenaChunk-1)/arenaChunk), len(a.chunks))
	clear(a.chunks[keep:])
	a.chunks = a.chunks[:keep]
	if n := keep * arenaChunk; cap(a.free) < n {
		a.free = make([]*Packet, 0, n)
	} else {
		clear(a.free[n:cap(a.free)])
	}
	a.free = a.free[:0]
	for _, chunk := range a.chunks {
		for i := range chunk {
			chunk[i] = Packet{freed: true}
			a.free = append(a.free, &chunk[i])
		}
	}
	a.inUse, a.peak = 0, 0
	a.queues.recycle()
	a.flights.recycle()
}

// ringSlab is one slab of ring buffers: buf[:used] is carved, one
// power-of-two run per ring, and every slot past used is zero. need is what
// the rings counted since the last carve will take.
type ringSlab[T any] struct {
	buf        []T
	used, need int
}

// count notes a ring that a later carve gives its first buffer.
func (s *ringSlab[T]) count(first int) { s.need += ringSize(first) }

// carve gives the empty ring r the buffer its first Push would allocate,
// ringSize(first) slots of the slab. The first carve after a count makes room
// for everything counted: a slab too small for it is replaced by one of
// exactly that size, not extended, so the slab grows only when a larger
// network needs more room, and rings carved from the old one keep it.
func (s *ringSlab[T]) carve(r *Ring[T], first int) {
	n := ringSize(first)
	if need := max(s.need, n); s.used+need > len(s.buf) {
		s.buf, s.used = make([]T, need), 0
	}
	s.need = 0
	r.Attach(s.buf[s.used : s.used+n : s.used+n])
	s.used += n
}

// recycle readies the slab for the next network. A ring that outgrew its
// slots left its old entries there, and Attach wants zero slots, so the
// carved span is cleared; past it nothing was ever written.
func (s *ringSlab[T]) recycle() {
	clear(s.buf[:s.used])
	s.used, s.need = 0, 0
}

// RingCarver gives a queue discipline's rings their first buffers from the
// slab of the domain its port runs on (CarveRings).
type RingCarver struct {
	slab     *ringSlab[*Packet]
	counting bool
}

// Ring gives r the buffer its first Push(_, first) would allocate.
func (c RingCarver) Ring(r *Ring[*Packet], first int) {
	if c.counting {
		c.slab.count(first)
	} else {
		c.slab.carve(r, first)
	}
}

// CarvedQueue is a queue discipline whose rings start in their domain's slab:
// CarveRings calls c.Ring once for each of them.
type CarvedQueue interface {
	CarveRings(c RingCarver)
}

// CarveRings gives the rings of a topology's ports, in port order, their
// first buffers from the slabs of each port's own scheduling domain: a
// port's flight flightCap entries, unless the port is cut (a cut port pushes
// nothing there), and its queue's rings what its CarveRings asks. Every ring
// is counted before any is carved, so a domain's slab is allocated at most
// once per build, and not at all on a domain that served a network as large.
// Ports built by NewPort are not carved: their rings allocate at their first
// Push.
func CarveRings(ports []Port) {
	for _, counting := range [...]bool{true, false} {
		for i := range ports {
			ports[i].carveRings(counting)
		}
	}
}

// park takes a packet that is leaving its shard off its arena's books, and
// adopt puts it on the books of the arena whose goroutine will free it. The
// source shard parks (CrossBox.AddDelivery) and the destination shard
// adopts (CrossBox.DrainPublished), each on its own goroutine, so every
// counter keeps a single writer; in between the mailbox accounts for the
// packet (CrossBox.Packets).
func (p *Packet) park() { p.owner.inUse-- }

func (p *Packet) adopt(a *Arena) {
	if p != nil { // a command entry carries no packet
		p.owner = a
		a.inUse++
		a.peak = max(a.peak, a.inUse)
	}
}
