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
//     until the flow's release, 2*MSL after its sender completed, hands it
//     here, reusable at once.
//
// Pools are not safe for concurrent use: build one per shard and only touch
// it from that shard's scheduling domain.
type Pool struct {
	senders   fabric.RetireList[*Sender]
	receivers fabric.RetireList[*Receiver]
}

// NewPool returns an empty pool for one scheduling domain.
func NewPool() *Pool { return &Pool{} }

// retiredFirst is a free-list's first buffer; a domain that completes more
// flows than this within 2*MSL doubles it.
const retiredFirst = 8

// NewSender builds (or recycles) the sender of a size-byte stream (size < 0
// never runs out) from src to dst, registered on src. The stream is a
// FixedSource the sender carries, so a flow start costs no source object.
// The sender returns to the pool automatically when the stream completes,
// and releases the flow's receiver on dst 2*MSL later.
func (pl *Pool) NewSender(src, dst *fabric.Endpoint, flow uint64, route int16, size int64, cfg Config) *Sender {
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
func (pl *Pool) NewGroupSender(src, dst *fabric.Endpoint, flow uint64, route int16, source DataSource, cfg Config) *Sender {
	s := pl.newSender(src, dst, flow, route, source, cfg)
	s.groupOwned = true
	return s
}

// newSender takes the oldest retired sender once it is ready, deleting its
// table entry — late ACKs beyond this point are freed as strays, which a
// completed sender would have ignored anyway — or builds a new one.
func (pl *Pool) newSender(src, dst *fabric.Endpoint, flow uint64, route int16, source DataSource, cfg Config) *Sender {
	s, ok := pl.senders.Take(src.Host.EventList())
	if ok {
		s.own.Flows.Delete(s.Flow)
		s.recycle(src, dst.Host.ID, flow, route, source, cfg)
	} else {
		s = NewSender(src, dst.Host.ID, flow, route, source, cfg)
		s.pool = pl
	}
	s.peer = dst
	return s
}

// RetireSender hands a completed sender back to the pool, reusable 2*MSL
// after its completion. Senders built with NewSender retire themselves;
// only group-owned senders need this.
func (pl *Pool) RetireSender(s *Sender) { pl.senders.Push(s, retiredFirst) }

// Idle reports whether a retired sender may serve a flow on el (fabric.Idler):
// it belongs to el's domain, its flow is Quiet, and its timer is disarmed.
func (s *Sender) Idle(el *sim.EventList) bool {
	return s.el == el && fabric.Quiet(el, s.CompletedAt) && !s.timer.Pending()
}

// NewReceiver builds (or recycles) a receiver registered on host. It
// returns to the pool when its flow's release runs.
func (pl *Pool) NewReceiver(host *fabric.Endpoint, peer int32, flow uint64, route int16) *Receiver {
	r, ok := pl.receivers.Take(host.Host.EventList())
	if ok {
		r.recycle(host, peer, flow, route)
	} else {
		r = NewReceiver(host, peer, flow, route)
		r.pool = pl
	}
	return r
}

// Retire hands a receiver its flow's release took out of the table to its
// pool (fabric.Retirer), reusable at once: its flow is over.
func (r *Receiver) Retire() {
	if r.pool != nil {
		r.pool.receivers.Push(r, retiredFirst)
	}
}

// Idle reports whether a released receiver may serve a flow on el
// (fabric.Idler): it belongs to el's domain.
func (r *Receiver) Idle(el *sim.EventList) bool { return r.host.EventList() == el }
