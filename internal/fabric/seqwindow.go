package fabric

// SeqWindow holds one entry of type T for every sequence number in the
// half-open range [Base, End): the one scoreboard container behind every
// transport's per-packet state (NDP's sender scoreboard and arrival bitmap,
// TCP's segment bookkeeping, pHost's ack and arrival maps). Entries live in
// a power-of-two ring indexed seq & mask, so a sequence number keeps its
// slot for as long as it is in the window, Push appends at End, and Advance
// drops the front once the owner has no more use for it — acked, received,
// below the cumulative ACK. Storage therefore follows the live span
// End − Base (a bandwidth-delay product), not the highest sequence number
// ever seen: a flow that runs forever keeps the buffer it had after its
// first round trip.
//
// The zero value is an empty window at sequence 0; storage is allocated by
// SizeFor or on the first Push. Not safe for concurrent use — a window
// belongs to one flow endpoint and is only touched from that host's
// scheduling domain.
type SeqWindow[T any] struct {
	// buf has power-of-two length (or is nil); slot seq & (len(buf)-1)
	// holds seq's entry for Base <= seq < End, anything elsewhere is stale.
	buf       []T
	base, end int64
}

// seqWindowMinCap is the size of the first allocation, unless SizeFor chose
// a smaller one, and the least any growth makes: two NDP initial windows, so
// most flows never grow past it.
const seqWindowMinCap = 64

// Base returns the first sequence number still in the window. Everything
// below it was dropped by Advance.
func (w *SeqWindow[T]) Base() int64 { return w.base }

// End returns the sequence number the next Push will take.
func (w *SeqWindow[T]) End() int64 { return w.end }

// Cap returns the number of entries the buffer holds without growing.
func (w *SeqWindow[T]) Cap() int { return len(w.buf) }

// At returns a pointer to seq's entry, valid until the next Push. It panics
// unless Base <= seq < End: a caller compares against Base and End first,
// because what a sequence number outside the window means (already terminal,
// never sent) is the owner's business.
func (w *SeqWindow[T]) At(seq int64) *T {
	if uint64(seq-w.base) >= uint64(w.end-w.base) {
		panic("fabric: SeqWindow.At outside [Base, End)")
	}
	return &w.buf[seq&int64(len(w.buf)-1)]
}

// Push appends v as the entry for sequence number End.
func (w *SeqWindow[T]) Push(v T) {
	if int(w.end-w.base) == len(w.buf) {
		w.grow()
	}
	w.buf[w.end&int64(len(w.buf)-1)] = v
	w.end++
}

// Advance drops the entry at Base. The window must not be empty.
func (w *SeqWindow[T]) Advance() {
	if w.base == w.end {
		panic("fabric: SeqWindow.Advance on an empty window")
	}
	w.base++
}

// Reset empties the window and rewinds it to sequence 0, keeping the buffer
// for the next flow (pooled TCP and pHost endpoints reuse their
// scoreboards).
func (w *SeqWindow[T]) Reset() { w.base, w.end = 0, 0 }

// Detach hands the buffer back and leaves the window owning no memory, at
// the Base and End it had: a finished owner reads no more than those. The
// window must be empty, so no live entry goes with the buffer.
func (w *SeqWindow[T]) Detach() []T {
	if w.base != w.end {
		panic("fabric: SeqWindow.Detach on a non-empty window")
	}
	buf := w.buf
	w.buf = nil
	return buf
}

// Attach gives an empty window buf, of power-of-two length or nil, as its
// storage in place of its own; the entries it holds are stale. A pooled
// owner takes the buffer another one detached.
func (w *SeqWindow[T]) Attach(buf []T) {
	if w.base != w.end || len(buf)&(len(buf)-1) != 0 {
		panic("fabric: SeqWindow.Attach to a non-empty window or of a buffer not a power of two")
	}
	w.buf = buf
}

// SizeFor gives a window that has no buffer yet one sized for an owner that
// will never hold more than n entries: the next power of two at or above n,
// but never more than the 64 entries a first Push would take; n < 0 (no
// bound known) means 64. A window that already has a buffer keeps it. A
// one-packet flow's scoreboard thus costs one entry, not 64; should a pooled
// owner later need more, its first growth goes straight to 64, so sizing
// costs it one allocation at most.
func (w *SeqWindow[T]) SizeFor(n int64) {
	if w.buf != nil {
		return
	}
	size := int64(seqWindowMinCap)
	if n >= 0 && n < size {
		size = 1
		for size < n {
			size *= 2
		}
	}
	w.buf = make([]T, size)
}

// grow doubles the buffer (or makes the first one) and moves every live
// entry to the slot its sequence number has under the new mask, never to
// fewer than 64 entries. It runs only when the live span End−Base outgrows
// the buffer: O(log span) times per endpoint, the buffer kept across Reset,
// never per packet.
func (w *SeqWindow[T]) grow() {
	size := 2 * len(w.buf)
	if size < seqWindowMinCap {
		size = seqWindowMinCap
	}
	nb := make([]T, size)
	for seq := w.base; seq < w.end; seq++ {
		nb[seq&int64(size-1)] = w.buf[seq&int64(len(w.buf)-1)]
	}
	w.buf = nb
}
