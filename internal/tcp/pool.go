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
//   - A completed sender emits nothing and ignores late duplicate ACKs, so
//     its demux slot is simply unregistered at reuse time (the demux frees
//     unclaimed packets, which is observationally identical).
//   - A completed receiver still re-ACKs late retransmissions — behavior a
//     stalled sender may depend on if the final ACK was dropped. At reuse
//     time its demux slot is therefore replaced with a tombstone that
//     replays exactly the ACK the live receiver would have sent. Tombstones
//     occupy the demux slot forever, just as the retired receiver itself
//     did before pooling existed.
//
// Pools are not safe for concurrent use: build one per shard and only touch
// it from that shard's scheduling domain.
type Pool struct {
	senders    fabric.Ring[*Sender]
	receivers  fabric.Ring[*Receiver]
	tombstones fabric.Slab[tombstone]
}

// retiredFirst is a free-list's first buffer; a domain that completes more
// flows than this within 2*MSL doubles it.
const retiredFirst = 8

// NewPool returns an empty pool for one scheduling domain.
func NewPool() *Pool { return &Pool{} }

// NewSender builds (or recycles) the sender of a size-byte stream (size < 0
// never runs out) registered on demux, which must demux the source host's
// packets. The stream is a FixedSource the sender carries, so a flow start
// costs no source object. The sender returns to the pool automatically when
// the stream completes.
func (pl *Pool) NewSender(host *fabric.Host, demux *fabric.Demux, dst int32, flow uint64,
	path []int16, size int64, cfg Config) *Sender {
	s := pl.newSender(host, demux, dst, flow, path, nil, cfg)
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
func (pl *Pool) NewGroupSender(host *fabric.Host, demux *fabric.Demux, dst int32, flow uint64,
	path []int16, source DataSource, cfg Config) *Sender {
	s := pl.newSender(host, demux, dst, flow, path, source, cfg)
	s.groupOwned = true
	return s
}

func (pl *Pool) newSender(host *fabric.Host, demux *fabric.Demux, dst int32, flow uint64,
	path []int16, source DataSource, cfg Config) *Sender {
	s := pl.takeSender(host.EventList())
	if s == nil {
		s = NewSender(host, dst, flow, path, source, cfg)
		s.pool = pl
	} else {
		s.recycle(host, dst, flow, path, source, cfg)
	}
	s.demux = demux
	demux.Register(flow, s)
	return s
}

// RetireSender hands a completed sender back to the pool. Senders built
// with NewSender retire themselves; only group-owned senders need this.
func (pl *Pool) RetireSender(s *Sender) { pl.retireSender(s) }

func (pl *Pool) retireSender(s *Sender) { pl.senders.Push(s, retiredFirst) }

// takeSender pops the oldest retired sender if it is quiescent: timer
// disarmed, 2*MSL past completion (no old-flow packets in flight), and
// owned by the requesting scheduling domain. Its demux registration is
// removed here — late ACKs beyond this point are freed unclaimed, which a
// completed sender would have ignored anyway.
func (pl *Pool) takeSender(el *sim.EventList) *Sender {
	s := pl.senders.Peek()
	if s == nil || s.el != el || s.timer.Pending() || el.Now() < s.CompletedAt+2*fabric.MSL {
		return nil
	}
	pl.senders.Pop()
	s.demux.Unregister(s.Flow)
	return s
}

// NewReceiver builds (or recycles) a receiver registered on demux, which
// must demux the receiving host's packets. The receiver returns to the pool
// automatically when the stream completes.
func (pl *Pool) NewReceiver(host *fabric.Host, demux *fabric.Demux, peer int32, flow uint64,
	path []int16) *Receiver {
	r := pl.takeReceiver(host.EventList())
	if r == nil {
		r = NewReceiver(host, peer, flow, path)
		r.pool = pl
	} else {
		r.recycle(host, peer, flow, path)
	}
	r.demux = demux
	demux.Register(flow, r)
	return r
}

func (pl *Pool) retireReceiver(r *Receiver) { pl.receivers.Push(r, retiredFirst) }

// takeReceiver pops the oldest retired receiver if 2*MSL has elapsed since
// completion and it belongs to the requesting domain, leaving a tombstone
// in its demux slot so late retransmissions keep eliciting the final ACK.
func (pl *Pool) takeReceiver(el *sim.EventList) *Receiver {
	r := pl.receivers.Peek()
	if r == nil || r.host.EventList() != el || el.Now() < r.CompletedAt+2*fabric.MSL {
		return nil
	}
	pl.receivers.Pop()
	// One small tombstone per recycled receiver, in place of keeping a
	// whole Receiver alive, carved from the pool's slab.
	t := pl.tombstones.New()
	*t = tombstone{host: r.host, arena: r.arena, flow: r.Flow, peer: r.peer, path: r.path, cumAck: r.got.Base()}
	r.demux.Register(r.Flow, t)
	return r
}

// tombstone stands in for a completed, recycled receiver: it answers late
// retransmissions with the same final cumulative ACK the live receiver
// would have produced, so a sender whose completion ACK was lost still
// recovers. It holds ~1/10th the state of a full Receiver.
type tombstone struct {
	host   *fabric.Host
	arena  *fabric.Arena
	flow   uint64
	peer   int32
	path   []int16
	cumAck int64
}

// Receive mirrors a completed Receiver.Receive exactly.
func (t *tombstone) Receive(p *fabric.Packet) {
	if p.Type != fabric.Data {
		fabric.Free(p)
		return
	}
	a := t.arena.NewControl(fabric.Ack, t.flow, t.host.ID, t.peer)
	a.AckNo = t.cumAck
	a.TSEcho = p.Sent
	if p.Flags&fabric.FlagCE != 0 {
		a.Flags |= fabric.FlagECNEcho
	}
	a.Path = t.path
	t.host.Send(a)
	fabric.Free(p)
}
