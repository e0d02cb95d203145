package dcqcn

import "ndp/internal/fabric"

// Host is the DCQCN endpoint of one host and its packet sink: one table of
// the flows the host sends or receives, through which every arrival is
// dispatched. An endpoint leaves it when it retires to its pool.
type Host struct {
	Host   *fabric.Host
	net    Fabric
	flows  fabric.FlowTable[flowEntry]
	Strays fabric.Strays // arrivals no flow claimed: CNPs after a sender's stop
}

// flowEntry is a flow's sender or receiver (never both: no host routes to
// itself).
type flowEntry struct {
	sender   *Sender
	receiver *Receiver
}

// Init installs h as host's packet sink.
func (h *Host) Init(host *fabric.Host, net Fabric) {
	*h = Host{Host: host, net: net}
	host.Stack = h
}

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
