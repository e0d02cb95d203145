package dcqcn

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Pool recycles completed DCQCN flow state. Lossless fabrics shard like
// any other (PFC pause crosses the cut as a keyed mailbox entry), so the
// network layer keeps one pool per scheduling domain and each shard only
// touches its own. Retirement is explicit: the fabric is lossless and paths are
// fixed, so once a receiver sees the FIN nothing more can arrive for the
// flow and the network layer retires both endpoints — after stopping the
// sender's rate-machine timers, which otherwise tick forever.
type Pool struct {
	senders   fabric.RetireList[*Sender]
	receivers fabric.RetireList[*Receiver]
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// retiredFirst is a free-list's first buffer; more retired endpoints than
// this in one domain double it.
const retiredFirst = 8

// NewSender builds or recycles a sender; call Start to begin transmitting.
func (pl *Pool) NewSender(host *fabric.Endpoint, dst int32, flow uint64, route int16, size int64, cfg Config) *Sender {
	if s, ok := pl.senders.Take(host.Host.EventList()); ok {
		s.recycle(host, dst, flow, route, size, cfg)
		return s
	}
	return NewSender(host, dst, flow, route, size, cfg)
}

// Idle reports whether a retired sender may serve a flow on el
// (fabric.Idler): it belongs to el's domain, its rate timers are stopped
// and no pacing event is outstanding (sending is true exactly while one is
// scheduled; after Stop the event fires once more as a no-op and clears
// it).
func (s *Sender) Idle(el *sim.EventList) bool {
	return s.el == el && !s.sending && !s.alphaTimer.Pending() && !s.incTimer.Pending()
}

// RetireSender deletes a stopped sender from its host's table and hands it
// back to the pool: a flow built in one domain retires inline. The caller
// must have called Stop.
func (pl *Pool) RetireSender(s *Sender) {
	s.own.Flows.Delete(s.Flow)
	pl.senders.Push(s, retiredFirst)
}

// NewReceiver builds or recycles a receiver registered on host.
func (pl *Pool) NewReceiver(host *fabric.Endpoint, peer int32, flow uint64, revRoute int16) *Receiver {
	r, ok := pl.receivers.Take(host.Host.EventList())
	if !ok {
		return NewReceiver(host, peer, flow, revRoute)
	}
	*r = Receiver{
		Flow: flow, host: host.Host, own: host, peer: peer, route: revRoute,
		arena: r.arena,
	}
	host.Flows.Put(flow, r)
	return r
}

// Idle reports whether a retired receiver may serve a flow on el
// (fabric.Idler): it belongs to el's domain.
func (r *Receiver) Idle(el *sim.EventList) bool { return r.host.EventList() == el }

// RetireReceiver deletes a completed receiver from its host's table and
// hands it back to the pool. On a lossless fixed path nothing arrives after
// the FIN, so the state is immediately reusable.
func (pl *Pool) RetireReceiver(r *Receiver) {
	r.own.Flows.Delete(r.Flow)
	pl.receivers.Push(r, retiredFirst)
}
