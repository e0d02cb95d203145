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
type Arena struct {
	// free is a LIFO stack, not a fabric.Ring: the packet freed last is the
	// one still in cache, and order among free packets means nothing.
	free  []*Packet
	inUse int64
}

// arenaChunk is how many packets one slab growth adds. Chunks amortize both
// the allocation and the GC scan cost (one backing array per 256 packets).
const arenaChunk = 256

// NewArena returns an empty arena; the first Get grows the initial chunk.
// AttachArena builds one per event list, on first attach, and caches it.
func NewArena() *Arena { return &Arena{} }

// take pops a recycled packet (growing a fresh slab when empty) without
// initializing it. Callers must overwrite every field before releasing the
// packet into the simulation.
func (a *Arena) take() *Packet {
	n := len(a.free)
	if n == 0 {
		chunk := make([]Packet, arenaChunk)
		for i := range chunk {
			chunk[i].freed = true
			a.free = append(a.free, &chunk[i])
		}
		n = len(a.free)
	}
	p := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	a.inUse++
	return p
}

// Get returns a zeroed packet owned by this arena.
func (a *Arena) Get() *Packet {
	p := a.take()
	*p = Packet{owner: a}
	return p
}

// NewControl builds a control packet (ACK/NACK/PULL/CNP) from this arena,
// sized at HeaderSize. One whole-struct store: no zero-then-set.
func (a *Arena) NewControl(t PacketType, flow uint64, src, dst int32) *Packet {
	p := a.take()
	*p = Packet{owner: a, Type: t, Flow: flow, Src: src, Dst: dst, Size: HeaderSize}
	return p
}

// NewData builds a payload packet of the given total wire size from this
// arena. One whole-struct store: no zero-then-set.
func (a *Arena) NewData(flow uint64, src, dst int32, seq int64, size int32) *Packet {
	p := a.take()
	*p = Packet{owner: a, Type: Data, Flow: flow, Src: src, Dst: dst, Seq: seq, Size: size, DataSize: size}
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
	p.Path = nil
	a.inUse--
}

// InUse reports the packets allocated from this arena and not yet freed.
// Zero after a completed run means no packet leaked.
func (a *Arena) InUse() int64 { return a.inUse }

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
	}
}
