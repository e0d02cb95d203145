package fabric

// Ring is a growable FIFO of T: the one queue container behind every switch
// queue discipline (drop-tail, ECN, control-priority, NDP's data and header
// queues, CP), the packets in flight on a link, the pull and token pacers'
// round-robin queues, a PFC ingress backlog, a sender's retransmission queue
// and the free-lists of retired flow endpoints. Entries live in a
// power-of-two buffer indexed from head, so Push and Pop are a mask and a
// store with no per-operation allocation, the front a Pop frees is the slot a
// later Push reuses, and the buffer follows the deepest the queue has been —
// not how many entries have passed through it.
//
// The zero value is an empty queue that owns no memory; the first Push
// allocates the buffer, at the size its caller passes (what bounds the queue,
// if the owner knows), and a full ring doubles. Not safe for concurrent use —
// a ring belongs to one port, host or pool and is only touched from that
// scheduling domain.
//
// Deliberately not a Ring: the slot free-lists of Inbox, Arena and
// sim.EventList are LIFO stacks (the slot freed last is the warm one), and
// SeqWindow is indexed by sequence number, not by arrival order.
type Ring[T any] struct {
	// buf has power-of-two length (or is nil); the n live entries are
	// buf[head], buf[head+1], ... taken modulo len(buf), every other slot
	// holds the zero T.
	buf     []T
	head, n int
}

// Len returns the number of queued entries.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the number of entries the buffer holds without growing; zero
// until the first Push.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail. first is the size of the buffer the very first
// Push allocates, rounded up to a power of two; once a buffer exists the
// argument is ignored.
func (r *Ring[T]) Push(v T, first int) {
	if r.n == len(r.buf) {
		r.grow(first)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest entry, or the zero T when empty.
func (r *Ring[T]) Pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopTail removes and returns the newest entry, or the zero T when empty
// (the NDP switch's trim-the-tail).
func (r *Ring[T]) PopTail() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	r.n--
	i := (r.head + r.n) & (len(r.buf) - 1)
	v := r.buf[i]
	r.buf[i] = zero
	return v
}

// Peek returns the oldest entry without removing it, or the zero T when
// empty.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		var zero T
		return zero
	}
	return r.buf[r.head]
}

// Reset empties the ring, keeping the buffer for the next owner (pooled
// endpoints reuse their queues). Live slots are zeroed so a ring of pointers
// pins nothing.
func (r *Ring[T]) Reset() {
	for r.n > 0 {
		r.Pop()
	}
	r.head = 0
}

// grow makes the first buffer or doubles a full one, moving the live span to
// the front. It runs O(log depth) times in a ring's life, never per entry,
// and is kept out of line (the compiler would inline it) so that Push's own
// body stays a compare, a store and a count.
//
//go:noinline
func (r *Ring[T]) grow(first int) {
	size := 2 * len(r.buf)
	if size == 0 {
		for size = 1; size < first; size *= 2 {
		}
	}
	nb := make([]T, size)
	// The ring is full: the live span is buf[head:] followed by buf[:head].
	k := copy(nb, r.buf[r.head:])
	copy(nb[k:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}

// Slab hands out zeroed values of T carved from chunks, allocating a chunk
// only when the last is used up: for objects made one at a time that live as
// long as their owner, such as a pool's tombstones. Chunks double from
// slabFirst to slabMax values, so a slab never holds much more than twice
// what it has handed out. The zero Slab is ready to use; not safe for
// concurrent use.
type Slab[T any] struct {
	free  []T
	chunk int // the size of the last chunk
}

const (
	slabFirst = 8
	slabMax   = 256
)

// New returns a pointer to a zeroed T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.chunk = min(max(2*s.chunk, slabFirst), slabMax)
		s.free = make([]T, s.chunk)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}
