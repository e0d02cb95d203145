package dcqcn

import (
	"ndp/internal/fabric"
)

// Pool recycles completed DCQCN flow state. Lossless fabrics shard like
// any other (PFC pause crosses the cut as a keyed mailbox entry), so the
// network layer keeps one pool per scheduling domain and each shard only
// touches its own. Retirement is explicit: the fabric is lossless and paths are
// fixed, so once a receiver sees the FIN nothing more can arrive for the
// flow and the network layer retires both endpoints — after stopping the
// sender's rate-machine timers, which otherwise tick forever.
type Pool struct {
	senders   fabric.Ring[*Sender]
	receivers fabric.Ring[*Receiver]
}

// retiredFirst is a free-list's first buffer; more retired endpoints than
// this at once double it.
const retiredFirst = 8

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewSender builds or recycles a sender; call Start to begin transmitting.
func (pl *Pool) NewSender(host *fabric.Host, dst int32, flow uint64, path []int16, size int64, cfg Config) *Sender {
	if s := pl.takeSender(host); s != nil {
		s.recycle(host, dst, flow, path, size, cfg)
		return s
	}
	return NewSender(host, dst, flow, path, size, cfg)
}

// takeSender pops the oldest retired sender once it is fully quiescent:
// rate timers stopped and no pacing event outstanding (sending is true
// exactly while one is scheduled; after Stop the event fires once more as a
// no-op and clears it).
func (pl *Pool) takeSender(host *fabric.Host) *Sender {
	s := pl.senders.Peek()
	if s == nil || s.el != host.EventList() || s.sending ||
		s.alphaTimer.Pending() || s.incTimer.Pending() {
		return nil
	}
	return pl.senders.Pop()
}

// RetireSender hands a stopped sender back to the pool. The caller must
// have called Stop and unregistered the flow from its demux.
func (pl *Pool) RetireSender(s *Sender) { pl.senders.Push(s, retiredFirst) }

// NewReceiver builds or recycles a receiver.
func (pl *Pool) NewReceiver(host *fabric.Host, peer int32, flow uint64, revPath []int16, cfg Config) *Receiver {
	r := pl.receivers.Peek()
	if r == nil || r.host.EventList() != host.EventList() {
		return NewReceiver(host, peer, flow, revPath, cfg)
	}
	pl.receivers.Pop()
	*r = Receiver{
		Flow: flow, host: host, peer: peer, path: revPath, cfg: cfg,
		arena: r.arena,
	}
	return r
}

// RetireReceiver hands a completed receiver back to the pool. The caller
// must have unregistered the flow from its demux; on a lossless fixed path
// nothing arrives after the FIN, so the state is immediately reusable.
func (pl *Pool) RetireReceiver(r *Receiver) { pl.receivers.Push(r, retiredFirst) }
