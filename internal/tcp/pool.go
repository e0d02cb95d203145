package tcp

import (
	"math"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Pool recycles completed Sender/Receiver state within one scheduling
// domain (all hosts sharing one event list). The dominant per-flow costs —
// the per-packet bookkeeping arrays, the arrival bitmap, and the timer —
// survive reuse, so a closed-loop workload's steady state allocates almost
// nothing per flow.
//
// Reuse is behavior-preserving, not just leak-safe:
//
//   - A completed sender emits nothing and ignores late ACKs, so its table
//     entry is simply deleted at reuse, 2*MSL after it completed.
//   - A completed receiver still re-ACKs late retransmissions, which a
//     sender whose final ACK was dropped depends on. It stays in its table
//     until the flow's Release, 2*MSL after its sender completed, hands it
//     here, reusable at once.
//
// Pools are not safe for concurrent use: build one per shard and only touch
// it from that shard's scheduling domain.
type Pool struct {
	senders   fabric.Ring[*Sender]
	receivers fabric.Ring[*Receiver]
}

// retiredFirst is a free-list's first buffer; a domain that completes more
// flows than this within 2*MSL doubles it.
const retiredFirst = 8

// NewPool returns an empty pool for one scheduling domain.
func NewPool() *Pool { return &Pool{} }

// NewSender builds (or recycles) the sender of a size-byte stream (size < 0
// never runs out) from src to dst, registered on src. The stream is a
// FixedSource the sender carries, so a flow start costs no source object.
// The sender returns to the pool automatically when the stream completes,
// and releases the flow's receiver on dst 2*MSL later.
func (pl *Pool) NewSender(src, dst *Host, flow uint64, route int16, size int64, cfg Config) *Sender {
	s := pl.newSender(src, dst, flow, route, nil, cfg)
	s.groupOwned = false
	if size < 0 {
		size = math.MaxInt64
	}
	s.fixed = FixedSource{Remaining: size, mss: int64(s.cfg.MSS)}
	s.source = &s.fixed
	return s
}

// NewGroupSender is NewSender without automatic retirement: the caller
// retires the whole group with RetireSender once its coupled state is dead
// (MPTCP's LIA reads sibling windows until every subflow has completed).
func (pl *Pool) NewGroupSender(src, dst *Host, flow uint64, route int16, source DataSource, cfg Config) *Sender {
	s := pl.newSender(src, dst, flow, route, source, cfg)
	s.groupOwned = true
	return s
}

func (pl *Pool) newSender(src, dst *Host, flow uint64, route int16, source DataSource, cfg Config) *Sender {
	s := pl.takeSender(src.Host.EventList())
	if s == nil {
		s = NewSender(src, dst.Host.ID, flow, route, source, cfg)
		s.pool = pl
	} else {
		s.recycle(src, dst.Host.ID, flow, route, source, cfg)
	}
	s.peer = dst
	return s
}

// RetireSender hands a completed sender back to the pool. Senders built
// with NewSender retire themselves; only group-owned senders need this.
func (pl *Pool) RetireSender(s *Sender) { pl.retireSender(s) }

func (pl *Pool) retireSender(s *Sender) { pl.senders.Push(s, retiredFirst) }

// takeSender pops the oldest retired sender if it is quiescent: timer
// disarmed, 2*MSL past completion (no old-flow packets in flight), and
// owned by the requesting scheduling domain. Its table entry is deleted
// here — late ACKs beyond this point are freed as strays, which a
// completed sender would have ignored anyway.
func (pl *Pool) takeSender(el *sim.EventList) *Sender {
	s := pl.senders.Peek()
	if s == nil || s.el != el || s.timer.Pending() || el.Now() < s.CompletedAt+2*fabric.MSL {
		return nil
	}
	pl.senders.Pop()
	s.own.flows.Delete(s.Flow)
	return s
}

// NewReceiver builds (or recycles) a receiver registered on host. It
// returns to the pool when its sender's Release runs.
func (pl *Pool) NewReceiver(host *Host, peer int32, flow uint64, route int16) *Receiver {
	r := pl.takeReceiver(host.Host.EventList())
	if r == nil {
		r = NewReceiver(host, peer, flow, route)
		r.pool = pl
	} else {
		r.recycle(host, peer, flow, route)
	}
	return r
}

func (pl *Pool) retireReceiver(r *Receiver) { pl.receivers.Push(r, retiredFirst) }

// takeReceiver pops the oldest released receiver if it belongs to the
// requesting domain. A released receiver is out of its host's table and
// its flow is over, so it is reusable as soon as it is here.
func (pl *Pool) takeReceiver(el *sim.EventList) *Receiver {
	r := pl.receivers.Peek()
	if r == nil || r.host.EventList() != el {
		return nil
	}
	return pl.receivers.Pop()
}
