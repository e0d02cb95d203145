package tcp

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Host is the TCP-family endpoint of one host (TCP, DCTCP and MPTCP
// subflows) and its packet sink: one table of the flows the host sends or
// receives, through which every arrival is dispatched. A sender leaves it
// when the pool reuses it, a receiver by its flow's Release.
type Host struct {
	Host  *fabric.Host
	net   Fabric
	flows fabric.FlowTable[flowEntry]
	// Strays counts arrivals no flow here claimed.
	Strays fabric.Strays
}

// flowEntry is a flow's sender or receiver (never both: no host routes to
// itself).
type flowEntry struct {
	sender   *Sender
	receiver *Receiver
}

// Fabric is what a host needs of its cluster (topo.Cluster): route counts
// and the deferred-command channel.
type Fabric interface {
	Paths(src, dst int32) int
	Defer(from, to int, at sim.Time, h sim.Handler, arg uint64)
}

// Init installs h as host's packet sink.
func (h *Host) Init(host *fabric.Host, net Fabric) {
	*h = Host{Host: host, net: net}
	host.Stack = h
}

// Paths counts the source routes from h to the host peer.
func (h *Host) Paths(peer int32) int { return h.net.Paths(h.Host.ID, peer) }

// Receive dispatches an arrival (fabric.Sink) with one probe of the flow
// table; a packet no flow claims is a stray, counted and freed.
func (h *Host) Receive(p *fabric.Packet) {
	e, _ := h.flows.Get(p.Flow)
	switch {
	case e.sender != nil:
		e.sender.Receive(p)
	case e.receiver != nil:
		e.receiver.Receive(p)
	default:
		h.Strays.Free(p)
	}
}

// Release deletes a flow's receiver from its host's table and hands it to
// its pool: a deferred command over the host, the flow id its argument. The
// sender emits it at completion, due 2*MSL later, when nothing of the flow
// can be in flight; until then the receiver answers late retransmissions.
type Release Host

// OnEvent runs the release (sim.Handler) on the receiving host's domain.
func (rl *Release) OnEvent(flow uint64) {
	h := (*Host)(rl)
	e, _ := h.flows.Get(flow)
	h.flows.Delete(flow)
	if r := e.receiver; r != nil && r.pool != nil {
		r.pool.retireReceiver(r)
	}
}
