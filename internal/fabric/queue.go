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
	Drops    int64 // packets discarded entirely
	Trims    int64 // payloads cut to headers (NDP/CP)
	Marks    int64 // ECN CE marks applied
	Bounces  int64 // headers returned to sender (NDP)
	MaxBytes int64 // high-watermark of queued bytes
}

// Stats returns s so that embedding types satisfy Queue.Stats.
func (s *QueueStats) Stats() *QueueStats { return s }

func (s *QueueStats) NoteDepth(bytes int) {
	if int64(bytes) > s.MaxBytes {
		s.MaxBytes = int64(bytes)
	}
}

// QueueSlab returns n queues of type T carved from one array, each set up by
// init: what a topology's queue factory hands a build, so that its queues
// cost two allocations per topology instead of one per port.
func QueueSlab[T any, Q interface {
	*T
	Queue
}](n int, init func(i int, q Q)) []Queue {
	qs := make([]T, n)
	out := make([]Queue, n)
	for i := range qs {
		q := Q(&qs[i])
		init(i, q)
		out[i] = q
	}
	return out
}

// FIFOQueues is the queue factory of drop-tail queues holding at most
// maxBytes each (one queue per port seed; the seeds are unused).
func FIFOQueues(maxBytes int) func(seeds []uint64) []Queue {
	return func(seeds []uint64) []Queue {
		return QueueSlab(len(seeds), func(_ int, q *FIFOQueue) { q.MaxQueue = maxBytes })
	}
}

// ECNQueues is the queue factory of ECN-marking drop-tail queues.
func ECNQueues(maxBytes, markThresholdBytes int) func(seeds []uint64) []Queue {
	return func(seeds []uint64) []Queue {
		return QueueSlab(len(seeds), func(_ int, q *ECNQueue) {
			q.MaxQueue, q.MarkThreshold = maxBytes, markThresholdBytes
		})
	}
}

// CtrlPrioQueues returns n unbounded control-priority queues, the host NIC
// discipline, carved from one slab.
func CtrlPrioQueues(n int) []Queue {
	return QueueSlab(n, func(int, *CtrlPrioQueue) {})
}

// queueFirst is the first buffer of a switch or NIC queue's ring: a queue
// bounded in bytes holds anything from a handful of jumbograms to hundreds
// of headers, so it starts where a busy one settles and doubles from there.
// About half of the drop-tail and ECN queues a run uses outgrow 8 (357 of
// 726 and 414 of 827 stay within it in one pass of all 22 experiments at
// Scale 0.1), and each doubling is one more object.
const queueFirst = 64

// ctrlFirst is the first buffer of a NIC's control band. ACKs, NACKs and
// PULLs leave ahead of any data, so the band stays shallow: of the control
// bands a run used, 1,066 of 1,081 in one pass of all 22 experiments at Scale
// 0.1 never held more than 8, and all of them in the 128-host permutation
// and the closed-loop rpc run. A band that does fill doubles from here
// (TestControlBandsStayAtFirstSize keeps the premise).
const ctrlFirst = 8

// FIFOQueue is a byte-bounded drop-tail FIFO: the classic switch queue used
// by the TCP, MPTCP and pHost baselines.
type FIFOQueue struct {
	QueueStats
	q        Ring[*Packet]
	bytes    int
	MaxQueue int // capacity in bytes; <=0 means unbounded (host NICs)
}

// NewFIFOQueue returns a drop-tail queue holding at most maxBytes.
func NewFIFOQueue(maxBytes int) *FIFOQueue {
	return &FIFOQueue{MaxQueue: maxBytes}
}

// Enqueue appends p, or drops it if the byte budget would be exceeded.
func (q *FIFOQueue) Enqueue(p *Packet) {
	if q.MaxQueue > 0 && q.bytes+int(p.Size) > q.MaxQueue {
		q.Drops++
		Free(p)
		return
	}
	q.bytes += int(p.Size)
	q.q.Push(p, queueFirst)
	q.NoteDepth(q.bytes)
}

// CarveRings carves the queue's ring at queueFirst (CarvedQueue).
func (q *FIFOQueue) CarveRings(c RingCarver) { c.Ring(&q.q, queueFirst) }

// Dequeue removes the head packet.
func (q *FIFOQueue) Dequeue() *Packet {
	p := q.q.Pop()
	if p != nil {
		q.bytes -= int(p.Size)
	}
	return p
}

// Empty reports whether the queue holds no packets.
func (q *FIFOQueue) Empty() bool { return q.q.Len() == 0 }

// Bytes returns the queued wire bytes.
func (q *FIFOQueue) Bytes() int { return q.bytes }

// Packets returns the number of queued packets.
func (q *FIFOQueue) Packets() int { return q.q.Len() }

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
	q.FIFOQueue.Enqueue(p)
}

// CtrlPrioQueue gives strict priority to control packets over data, with no
// byte bound — the host NIC discipline for NDP endpoints (ACKs, NACKs and
// PULLs must not sit behind a window of jumbograms) and a building block for
// switch disciplines.
type CtrlPrioQueue struct {
	QueueStats
	ctrl, data Ring[*Packet]
	bytes      int
}

// NewCtrlPrioQueue returns an unbounded two-band priority queue.
func NewCtrlPrioQueue() *CtrlPrioQueue { return &CtrlPrioQueue{} }

// Enqueue classifies p by IsControl.
func (q *CtrlPrioQueue) Enqueue(p *Packet) {
	q.bytes += int(p.Size)
	if p.IsControl() {
		q.ctrl.Push(p, ctrlFirst)
	} else {
		q.data.Push(p, queueFirst)
	}
	q.NoteDepth(q.bytes)
}

// CarveRings carves the control band at ctrlFirst and the data band at
// queueFirst (CarvedQueue).
func (q *CtrlPrioQueue) CarveRings(c RingCarver) {
	c.Ring(&q.ctrl, ctrlFirst)
	c.Ring(&q.data, queueFirst)
}

// Dequeue serves control strictly first.
func (q *CtrlPrioQueue) Dequeue() *Packet {
	p := q.ctrl.Pop()
	if p == nil {
		p = q.data.Pop()
	}
	if p != nil {
		q.bytes -= int(p.Size)
	}
	return p
}

// Empty reports whether both bands are empty.
func (q *CtrlPrioQueue) Empty() bool { return q.ctrl.Len() == 0 && q.data.Len() == 0 }

// Bytes returns the queued wire bytes across both bands.
func (q *CtrlPrioQueue) Bytes() int { return q.bytes }
