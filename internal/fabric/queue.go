package fabric

// Queue is the admission + scheduling discipline of one switch output port.
// Enqueue applies the discipline's overload policy (drop, ECN-mark, trim,
// bounce, block); Dequeue picks the next packet to serialize. A Queue is
// driven by exactly one Port and is not safe for concurrent use — the whole
// simulation is single-goroutine by design.
type Queue interface {
	// Enqueue offers a packet. The queue takes ownership: it may store,
	// transform (trim), redirect (bounce) or free the packet.
	Enqueue(p *Packet)
	// Dequeue removes and returns the next packet, or nil when empty.
	Dequeue() *Packet
	// Empty reports whether Dequeue would return nil.
	Empty() bool
	// Bytes is the total queued wire bytes (all internal queues).
	Bytes() int
	// Stats exposes the queue's drop/mark/trim counters.
	Stats() *QueueStats
}

// QueueStats counts the overload events a queue has taken. Every discipline
// embeds one; harness code aggregates them across the topology.
type QueueStats struct {
	EnqPackets int64 // packets offered
	EnqBytes   int64 // bytes offered
	Drops      int64 // packets discarded entirely
	Trims      int64 // payloads cut to headers (NDP/CP)
	Marks      int64 // ECN CE marks applied
	Bounces    int64 // headers returned to sender (NDP)
	MaxBytes   int64 // high-watermark of queued bytes
}

// Stats returns s so that embedding types satisfy Queue.Stats.
func (s *QueueStats) Stats() *QueueStats { return s }

func (s *QueueStats) NoteEnqueue(p *Packet) {
	s.EnqPackets++
	s.EnqBytes += int64(p.Size)
}

func (s *QueueStats) NoteDepth(bytes int) {
	if int64(bytes) > s.MaxBytes {
		s.MaxBytes = int64(bytes)
	}
}

// ring is a growable FIFO of packets. A power-of-two ring buffer avoids the
// per-operation allocation of a linked list and the head-copy cost of a
// slice-based queue; queues sit on the per-packet hot path.
type ring struct {
	buf        []*Packet
	head, tail int // tail is one past the last element
	n          int
}

func (r *ring) len() int { return r.n }

func (r *ring) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = p
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.n++
}

func (r *ring) pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// popTail removes the most recently pushed packet (used by the NDP switch's
// 50% trim-the-tail policy).
func (r *ring) popTail() *Packet {
	if r.n == 0 {
		return nil
	}
	r.tail = (r.tail - 1) & (len(r.buf) - 1)
	p := r.buf[r.tail]
	r.buf[r.tail] = nil
	r.n--
	return p
}

// pushHead inserts at the front (used for strict-priority re-insertion).
func (r *ring) pushHead(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = p
	r.n++
}

func (r *ring) peek() *Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// grow doubles the ring; the buffer is reused forever.
func (r *ring) grow() {
	// The index masking throughout this type requires a power-of-two
	// buffer. Doubling preserves that invariant, but a buffer installed by
	// any other path (or a future refactor) would silently corrupt the
	// queue, so normalize the new capacity instead of assuming it.
	size := nextPow2(len(r.buf)*2, 64)
	nb := make([]*Packet, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
	r.tail = r.n
}

// nextPow2 returns the smallest power of two >= max(n, floor).
func nextPow2(n, floor int) int {
	size := floor
	for size < n {
		size *= 2
	}
	return size
}

// FIFOQueue is a byte-bounded drop-tail FIFO: the classic switch queue used
// by the TCP, MPTCP and pHost baselines.
type FIFOQueue struct {
	QueueStats
	q        ring
	bytes    int
	MaxQueue int // capacity in bytes; <=0 means unbounded (host NICs)
}

// NewFIFOQueue returns a drop-tail queue holding at most maxBytes.
func NewFIFOQueue(maxBytes int) *FIFOQueue {
	return &FIFOQueue{MaxQueue: maxBytes}
}

// Enqueue appends p, or drops it if the byte budget would be exceeded.
func (q *FIFOQueue) Enqueue(p *Packet) {
	q.NoteEnqueue(p)
	if q.MaxQueue > 0 && q.bytes+int(p.Size) > q.MaxQueue {
		q.Drops++
		Free(p)
		return
	}
	q.bytes += int(p.Size)
	q.q.push(p)
	q.NoteDepth(q.bytes)
}

// Dequeue removes the head packet.
func (q *FIFOQueue) Dequeue() *Packet {
	p := q.q.pop()
	if p != nil {
		q.bytes -= int(p.Size)
	}
	return p
}

// Empty reports whether the queue holds no packets.
func (q *FIFOQueue) Empty() bool { return q.q.len() == 0 }

// Bytes returns the queued wire bytes.
func (q *FIFOQueue) Bytes() int { return q.bytes }

// Packets returns the number of queued packets.
func (q *FIFOQueue) Packets() int { return q.q.len() }

// ECNQueue is a drop-tail FIFO that sets the ECN CE codepoint on packets
// that arrive to find the queue deeper than a marking threshold — the sharp
// single-threshold marking DCTCP and DCQCN assume.
type ECNQueue struct {
	FIFOQueue
	MarkThreshold int // bytes; arriving packet marked if queued bytes >= this
}

// NewECNQueue returns an ECN-marking drop-tail queue.
func NewECNQueue(maxBytes, markThresholdBytes int) *ECNQueue {
	q := &ECNQueue{MarkThreshold: markThresholdBytes}
	q.MaxQueue = maxBytes
	return q
}

// Enqueue marks then appends (or drops, against the same byte budget).
func (q *ECNQueue) Enqueue(p *Packet) {
	if q.bytes >= q.MarkThreshold {
		p.Flags |= FlagCE
		q.Marks++
	}
	p.QueueOcc = int32(q.bytes)
	q.FIFOQueue.Enqueue(p)
}

// CtrlPrioQueue gives strict priority to control packets over data, with no
// byte bound — the host NIC discipline for NDP endpoints (ACKs, NACKs and
// PULLs must not sit behind a window of jumbograms) and a building block for
// switch disciplines.
type CtrlPrioQueue struct {
	QueueStats
	ctrl, data ring
	bytes      int
}

// NewCtrlPrioQueue returns an unbounded two-band priority queue.
func NewCtrlPrioQueue() *CtrlPrioQueue { return &CtrlPrioQueue{} }

// Enqueue classifies p by IsControl.
func (q *CtrlPrioQueue) Enqueue(p *Packet) {
	q.NoteEnqueue(p)
	q.bytes += int(p.Size)
	if p.IsControl() {
		q.ctrl.push(p)
	} else {
		q.data.push(p)
	}
	q.NoteDepth(q.bytes)
}

// Dequeue serves control strictly first.
func (q *CtrlPrioQueue) Dequeue() *Packet {
	p := q.ctrl.pop()
	if p == nil {
		p = q.data.pop()
	}
	if p != nil {
		q.bytes -= int(p.Size)
	}
	return p
}

// Empty reports whether both bands are empty.
func (q *CtrlPrioQueue) Empty() bool { return q.ctrl.len() == 0 && q.data.len() == 0 }

// Bytes returns the queued wire bytes across both bands.
func (q *CtrlPrioQueue) Bytes() int { return q.bytes }
