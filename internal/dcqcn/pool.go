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
	senders   []*Sender
	receivers []*Receiver
}

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
	if len(pl.senders) == 0 {
		return nil
	}
	s := pl.senders[0]
	if s.el != host.EventList() || s.sending ||
		s.alphaTimer.Pending() || s.incTimer.Pending() {
		return nil
	}
	pl.senders = pl.senders[1:]
	return s
}

// RetireSender hands a stopped sender back to the pool. The caller must
// have called Stop and unregistered the flow from its demux.
func (pl *Pool) RetireSender(s *Sender) { pl.senders = append(pl.senders, s) }

// NewReceiver builds or recycles a receiver.
func (pl *Pool) NewReceiver(host *fabric.Host, peer int32, flow uint64, revPath []int16, cfg Config) *Receiver {
	if len(pl.receivers) > 0 {
		r := pl.receivers[0]
		if r.host.EventList() == host.EventList() {
			pl.receivers = pl.receivers[1:]
			arena := r.arena
			*r = Receiver{
				Flow: flow, host: host, peer: peer, path: revPath, cfg: cfg,
				arena: arena,
			}
			return r
		}
	}
	return NewReceiver(host, peer, flow, revPath, cfg)
}

// RetireReceiver hands a completed receiver back to the pool. The caller
// must have unregistered the flow from its demux; on a lossless fixed path
// nothing arrives after the FIN, so the state is immediately reusable.
func (pl *Pool) RetireReceiver(r *Receiver) { pl.receivers = append(pl.receivers, r) }
