// Package cp implements the Cut Payload switch of Cheng et al. (NSDI 2014),
// the baseline NDP's switch service model improves on (§2.3, Figure 2).
// A CP switch keeps a single FIFO: when a data packet does not fit, its
// payload is trimmed and the header is queued in the same FIFO (no priority
// queue, no WRR, no tail-trim coin). Under severe overload the FIFO fills
// with headers — the congestion-collapse failure mode — and its determinism
// produces the phase effects that make CP unfair.
package cp

import (
	"ndp/internal/fabric"
)

// Queue is the CP output-port discipline: one FIFO shared by data packets
// and trimmed headers. Data packets are trimmed once occupancy exceeds
// TrimThreshold; MaxBytes is the hard buffer limit beyond which even
// headers are dropped.
type Queue struct {
	fabric.QueueStats
	q     fabric.Ring[*fabric.Packet]
	bytes int
	// TrimThreshold is the occupancy above which payloads are cut.
	TrimThreshold int
	// MaxBytes is the hard capacity including header headroom.
	MaxBytes int
}

// fifoFirst is the FIFO's first buffer: the three data packets of Figure 2's
// threshold and the first headers behind them; an overloaded queue, filling
// with headers, doubles it.
const fifoFirst = 16

// NewQueue returns a CP queue that trims above trimThreshold bytes and
// drops above maxBytes.
func NewQueue(trimThreshold, maxBytes int) *Queue {
	return &Queue{TrimThreshold: trimThreshold, MaxBytes: maxBytes}
}

// Enqueue stores the packet, trimming its payload above the threshold; if
// even the header does not fit under the hard limit, the packet is dropped.
func (q *Queue) Enqueue(p *fabric.Packet) {
	q.NoteEnqueue(p)
	if p.Type == fabric.Data && !p.Trimmed() {
		if q.bytes+int(p.Size) <= q.TrimThreshold {
			q.bytes += int(p.Size)
			q.q.Push(p, fifoFirst)
			q.NoteDepth(q.bytes)
			return
		}
		p.Trim()
		q.Trims++
	}
	if q.bytes+int(p.Size) <= q.MaxBytes {
		q.bytes += int(p.Size)
		q.q.Push(p, fifoFirst)
		q.NoteDepth(q.bytes)
		return
	}
	q.Drops++
	fabric.Free(p)
}

// Dequeue removes the head packet (strict FIFO: headers wait their turn,
// which is why CP's loss feedback is slower than NDP's).
func (q *Queue) Dequeue() *fabric.Packet {
	p := q.q.Pop()
	if p != nil {
		q.bytes -= int(p.Size)
	}
	return p
}

// Empty reports whether the FIFO is empty.
func (q *Queue) Empty() bool { return q.q.Len() == 0 }

// Bytes returns queued wire bytes.
func (q *Queue) Bytes() int { return q.bytes }

// QueueFactory returns a topo.Config-compatible factory for CP queues:
// trimming above trimThreshold with header headroom up to maxBytes.
func QueueFactory(trimThreshold, maxBytes int) func(name string) fabric.Queue {
	return func(string) fabric.Queue { return NewQueue(trimThreshold, maxBytes) }
}
