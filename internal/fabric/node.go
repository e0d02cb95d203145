package fabric

import (
	"strconv"

	"ndp/internal/sim"
)

// Label names a switch or a host as a kind and up to two indices, formatted
// only when read: a topology of thousands of nodes builds no name strings
// unless a panic or a trace prints one. A negative index is absent:
// {"tor", 2, 1} reads "tor2.1", {"core", 3, -1} "core3", and {"drv", -1,
// -1} the literal "drv".
type Label struct {
	Kind string
	A, B int32
}

// named is the label of a literal name.
func named(name string) Label { return Label{Kind: name, A: -1, B: -1} }

// AppendTo appends the label's text to b.
func (l Label) AppendTo(b []byte) []byte {
	b = append(b, l.Kind...)
	if l.A >= 0 {
		b = strconv.AppendInt(b, int64(l.A), 10)
	}
	if l.B >= 0 {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(l.B), 10)
	}
	return b
}

// String formats the label.
func (l Label) String() string { return string(l.AppendTo(nil)) }

// RouteFunc picks the egress port index for a packet at a switch, consuming
// one source-route hop when the packet carries one. Returning a negative
// index drops the packet.
type RouteFunc func(sw *Switch, p *Packet) int

// Switch is an output-queued switch: packets arriving on any link are routed
// and enqueued on an egress Port immediately (the input arbiter of the
// NetFPGA design runs at aggregate rate, so input contention is not the
// bottleneck the paper models). In lossless (PFC) mode, per-link ingress
// queues gate admission to egress queues instead; see lossless.go.
type Switch struct {
	ID    int
	Ports []*Port
	Route RouteFunc
	// Label is read only by String; Ports and Route, read at every hop,
	// stay at the front.
	Label Label

	el *sim.EventList

	// Lossless (PFC) state; nil unless EnableLossless was called.
	lossless *losslessState

	// Drops counts packets discarded because routing failed.
	RouteDrops int64
}

// NewSwitch creates a switch with no ports; ports are added via AddPort and
// wired with Port.Connect.
func NewSwitch(el *sim.EventList, id int, name string) *Switch {
	s := &Switch{}
	s.Init(el, id, named(name))
	return s
}

// Init sets up a switch built in place, as a topology builds its switches
// from one slab.
func (s *Switch) Init(el *sim.EventList, id int, label Label) {
	s.ID, s.Label, s.el = id, label, el
}

// AddPort appends an egress port and returns its index. On a lossless
// switch the port's dequeue hook drives the ingress drain, regardless of
// whether EnableLossless ran before or after the port was added. Any other
// port whose link stays on this event list (wire Cross before adding it)
// serializes on demand from here on: see Port.
func (s *Switch) AddPort(p *Port) int {
	s.Ports = append(s.Ports, p)
	if s.lossless != nil {
		p.OnDequeue = s.drainHeld
	}
	p.onDemand = p.OnDequeue == nil && p.Cross == nil && p.Delay > 0
	return len(s.Ports) - 1
}

// EventList returns the scheduler this switch runs on.
func (s *Switch) EventList() *sim.EventList { return s.el }

// Receive routes and forwards a packet (store-and-forward input side).
func (s *Switch) Receive(p *Packet) {
	out := s.Route(s, p)
	if out < 0 || out >= len(s.Ports) {
		s.RouteDrops++
		Free(p)
		return
	}
	s.Ports[out].Enqueue(p)
}

// ReleasePackets releases every packet the switch still holds at teardown:
// each egress port's pipeline and, in lossless mode, the held ingress
// backlog.
func (s *Switch) ReleasePackets() {
	for _, p := range s.Ports {
		p.ReleasePackets()
	}
	if s.lossless != nil {
		for _, iq := range s.lossless.ingresses {
			iq.releasePackets()
		}
	}
}

// String identifies the switch in traces.
func (s *Switch) String() string { return "switch(" + s.Label.String() + ")" }

// Host is an end system: one NIC uplink and a protocol stack that consumes
// arriving packets. Transport packages install themselves as the Stack.
type Host struct {
	ID    int32
	Label Label
	NIC   *Port

	// Stack receives every packet addressed to this host. Typically a
	// *Demux shared by all transport instances on the host.
	Stack Sink

	el *sim.EventList
}

// NewHost creates a host; the topology builder attaches the NIC port.
func NewHost(el *sim.EventList, id int32, name string) *Host {
	h := &Host{}
	h.Init(el, id, named(name))
	return h
}

// Init sets up a host built in place, as a topology builds its hosts from
// one slab.
func (h *Host) Init(el *sim.EventList, id int32, label Label) {
	h.ID, h.Label, h.el = id, label, el
}

// Receive delivers an arriving packet to the protocol stack.
func (h *Host) Receive(p *Packet) {
	if h.Stack == nil {
		Free(p)
		return
	}
	h.Stack.Receive(p)
}

// Send queues a packet on the host NIC.
func (h *Host) Send(p *Packet) { h.NIC.Enqueue(p) }

// EventList returns the scheduler this host runs on.
func (h *Host) EventList() *sim.EventList { return h.el }

// LinkRate returns the NIC line rate in bits per second.
func (h *Host) LinkRate() int64 { return h.NIC.RateBps }

// Demux dispatches packets to per-flow handlers. Unknown flows go to the
// Listen hook, which may install a handler on the fly (NDP's zero-RTT
// connection establishment creates receiver state from whichever first-RTT
// packet arrives first).
type Demux struct {
	handlers FlowTable[Sink]

	// Listen is consulted for packets whose flow has no handler. If it
	// returns a non-nil Sink, the sink is registered for the flow and
	// receives the packet; otherwise the packet is freed.
	Listen func(p *Packet) Sink

	// Unclaimed counts packets freed because no handler matched.
	Unclaimed int64
}

// NewDemux returns an empty demultiplexer. The zero Demux is ready to use
// too, for embedding by value.
func NewDemux() *Demux { return &Demux{} }

// Register installs a handler for a flow.
func (d *Demux) Register(flow uint64, s Sink) { d.handlers.Put(flow, s) }

// Unregister removes a flow handler.
func (d *Demux) Unregister(flow uint64) { d.handlers.Delete(flow) }

// Handler returns the handler registered for a flow, or nil.
func (d *Demux) Handler(flow uint64) Sink {
	h, _ := d.handlers.Get(flow)
	return h
}

// Receive dispatches by flow id. A packet no handler claims and Listen
// turns away is freed without touching the table: strays never grow it.
func (d *Demux) Receive(p *Packet) {
	if h, ok := d.handlers.Get(p.Flow); ok {
		h.Receive(p)
		return
	}
	if d.Listen != nil {
		if h := d.Listen(p); h != nil {
			d.handlers.Put(p.Flow, h)
			h.Receive(p)
			return
		}
	}
	d.Unclaimed++
	Free(p)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(p *Packet)

// Receive invokes the function.
func (f SinkFunc) Receive(p *Packet) { f(p) }

// CountingSink counts and frees everything it receives; useful in tests and
// as a traffic sink for unresponsive-flow experiments.
type CountingSink struct {
	Packets   int64
	Bytes     int64
	DataBytes int64 // untrimmed payload bytes (goodput)
	Trimmed   int64
	LastAt    sim.Time

	el *sim.EventList

	// OnPacket, when set, observes each packet before it is freed.
	OnPacket func(p *Packet)
}

// NewCountingSink returns a sink that records arrival statistics.
func NewCountingSink(el *sim.EventList) *CountingSink { return &CountingSink{el: el} }

// Receive counts and frees the packet.
func (c *CountingSink) Receive(p *Packet) {
	c.Packets++
	c.Bytes += int64(p.Size)
	if p.Type == Data && !p.Trimmed() {
		c.DataBytes += int64(p.DataSize)
	}
	if p.Trimmed() {
		c.Trimmed++
	}
	if c.el != nil {
		c.LastAt = c.el.Now()
	}
	if c.OnPacket != nil {
		c.OnPacket(p)
	}
	Free(p)
}
