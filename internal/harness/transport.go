package harness

import (
	"ndp/internal/core"
	"ndp/internal/dcqcn"
	"ndp/internal/dctcp"
	"ndp/internal/fabric"
	"ndp/internal/mptcp"
	"ndp/internal/phost"
	"ndp/internal/sim"
	"ndp/internal/tcp"
	"ndp/internal/topo"
)

// This file defines the one launch surface the figure runners, the public
// scenario package and benchmark/ all drive. Each of the simulator's
// transports — NDP and its baselines — is a Transport: a named recipe that
// wires its switch queue discipline and per-host endpoints onto any topology
// and returns a Net, whose StartFlow is the only way a flow begins. A figure
// that compares transports is written once against Net and looped over them.
//
// The one exception is in builders.go: the figure tables of the TCP family
// and DCQCN are pinned (benchmark/expected.json) to launchers that draw
// connect-time paths from a net-wide stream, so the figure runners reach
// those transports through three adapters — Nets whose StartFlow makes the
// pinned draws — until a PR that may re-pin the tables deletes them.

// Flow is the uniform handle for one transfer started via Net.StartFlow.
type Flow interface {
	// AckedBytes reports payload bytes delivered so far (sender-acked or
	// receiver-counted, whichever the transport measures goodput by).
	AckedBytes() int64
}

// StartOpts tunes one StartFlow call. All fields are optional; transports
// ignore the ones they cannot honour (only NDP implements Priority, and
// pHost has no per-byte goodput observer).
type StartOpts struct {
	// Priority asks the receiver to serve this flow strictly first
	// (NDP's pull-queue prioritization; ignored elsewhere).
	Priority bool
	// OnDone fires once when the flow completes, with the simulation
	// time of completion. Never fires for unbounded flows.
	OnDone func(at sim.Time)
	// OnData observes every newly delivered payload byte count.
	OnData func(bytes int64)
}

// Net is the uniform surface of a built network: a topology with one
// transport's endpoints installed on every host. It is what workloads
// drive, regardless of protocol.
type Net interface {
	// EL returns the simulation scheduler (shard 0's list when sharded;
	// drivers of sharded networks must use Runner instead).
	EL() *sim.EventList
	// Runner returns the engine driver: the event list itself for
	// single-list networks, the windowed multi-list runner when sharded.
	Runner() sim.Runner
	// Cluster returns the underlying topology.
	Cluster() topo.Cluster
	// StartFlow begins a transfer of size bytes from host src to host
	// dst; size < 0 runs an unbounded (permutation-style) flow.
	//
	// StartFlow is shard-safe for every transport: called mid-run in
	// the source host's scheduling domain, it touches only source-shard
	// state inline and delivers receiver-side setup through the
	// cluster's deferred command channel, so closed-loop workloads run
	// bit-identically on any shard layout.
	StartFlow(src, dst int, size int64, opts StartOpts) Flow
	// DoneHost reports the host (src or dst) in whose scheduling domain
	// StartOpts.OnDone runs for a src->dst flow: the receiver for
	// transports that detect completion on arrival (NDP, TCP family,
	// DCQCN), the sender for ack-counting ones (pHost). Sharded workload
	// drivers route per-completion bookkeeping through this host's shard.
	DoneHost(src, dst int) int
	// Endpoint returns host's transport endpoint: its flow table and the
	// count of the packets no flow of it claimed.
	Endpoint(host int) *fabric.Endpoint
	// Close releases what the transport holds past the run (packets in
	// the NDP stacks' RxDelay windows) and the cluster's fabric and engine
	// resources (sharded-runner workers).
	Close()
}

// Transport builds a Net from a topology recipe. Implementations carry the
// per-protocol configuration (switch queues, endpoint parameters) so that
// the same Transport value can be applied to any topology.
type Transport interface {
	// Name is the stable lower-case identifier ("ndp", "dctcp", ...).
	Name() string
	// Build constructs the topology with this transport's switch queues
	// and installs endpoints on every host.
	Build(build BuildFunc, base topo.Config) Net
}

// PaperTransport returns the transport named id as the paper sets it up for
// the given MTU:
//
//   - "ndp": 8-packet trimming queues, a 30-packet initial window;
//   - "tcp": the Linux-like baseline, 8-packet drop-tail, 200ms MinRTO;
//   - "dctcp": ECN-marking queues with the recommended 200-packet buffers,
//     the ECN-fraction sender, one fixed path per flow as the ECMP stand-in;
//   - "mptcp": 200-packet drop-tail, 8 subflows on distinct paths;
//   - "dcqcn": a lossless fabric, rate-based, single path;
//   - "phost": 8-packet drop-tail, per-packet spraying.
func PaperTransport(id string, mtu int) Transport {
	switch id {
	case "ndp":
		return DefaultNDPTransport(mtu)
	case "tcp":
		cfg := tcp.DefaultConfig()
		cfg.MSS = mtu
		return TCPTransport{Cfg: cfg, Queue: fabric.FIFOQueues(8 * mtu)}
	case "dctcp":
		return TCPTransport{Cfg: dctcp.SenderConfig(mtu), Queue: dctcp.QueueFactory(mtu)}
	case "mptcp":
		return DefaultMPTCPTransport(mtu)
	case "dcqcn":
		return DCQCNTransport{MTU: mtu}
	case "phost":
		cfg := phost.DefaultConfig()
		cfg.MTU = mtu
		return PHostTransport{Cfg: cfg}
	}
	panic("harness: no transport named " + id)
}

// ------------------------------------------------------------------ NDP ----

// NDPTransport builds NDP networks: trimming switch queues, return-to-
// sender wiring, and an NDP stack per host.
type NDPTransport struct {
	Switch core.SwitchConfig
	Host   core.Config
}

// Name implements Transport.
func (t NDPTransport) Name() string { return "ndp" }

// Build implements Transport.
func (t NDPTransport) Build(build BuildFunc, base topo.Config) Net {
	base.SwitchQueue = core.QueueFactory(t.Switch, base.Seed*2654435761+17)
	return newNDPNet(build(base), t.Host, base.Seed)
}

// DefaultNDPTransport returns the paper's NDP setup for the given MTU:
// 8-packet trimming queues and a 30-packet initial window.
func DefaultNDPTransport(mtu int) NDPTransport {
	hcfg := core.DefaultConfig()
	hcfg.MTU = mtu
	return NDPTransport{Switch: core.DefaultSwitchConfig(mtu), Host: hcfg}
}

// Close implements Net: releases packets parked in the stacks' RxDelay
// windows, then the cluster's fabric and engine resources.
func (n *NDPNet) Close() {
	for _, st := range n.Stacks {
		st.Close()
	}
	n.C.Close()
}

// StartFlow implements Net. The sender half starts immediately on the
// source host; the receiver opens on the destination stack the minimum
// src->dst path delay later, with the receiver-side options (pull priority,
// completion and goodput hooks), via the cluster's command channel, as the
// sender's own Registration — a command is a value carried by the pooled
// flow state, never a closure, so a flow start allocates nothing. That
// deferral is what lets a mid-run flow start (closed-loop RPC) work when
// source and destination live on different shards — and it runs
// identically when they don't, so results never depend on the shard
// layout. The offset is the pairwise MinPathDelay, the earliest anything
// sent at src can physically reach dst: it depends on the topology alone,
// never on the layout, and it is at least the lookahead whenever src and
// dst are on different shards. The receiver still opens before the first
// SYN arrives, which trails it by at least a serialization time (same
// minimum path, plus transmission).
func (n *NDPNet) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	c, srcStack, dstStack := n.C, n.Stacks[src], n.Stacks[dst]
	s := srcStack.Open(dstStack.Host.ID, size, core.FlowOpts{Flow: n.src.flowID(src, 1),
		Priority: opts.Priority, OnReceiverDoneAt: opts.OnDone, OnReceiverData: opts.OnData})
	at := srcStack.Host.EventList().Now() + c.MinPathDelay(src, dst)
	c.Defer(src, dst, at, s.Registration(dstStack, at), 0)
	s.Start()
	return s
}

// ----------------------------------------------------------- TCP / DCTCP ----

// TCPTransport builds single-path TCP-family networks: the given switch
// queue discipline, a fabric.Endpoint per host, and Cfg applied to every flow
// started through the Net surface. With Cfg.DCTCP set it is the DCTCP
// baseline.
type TCPTransport struct {
	Cfg   tcp.Config
	Queue topo.QueueFactory
}

// Name implements Transport.
func (t TCPTransport) Name() string {
	if t.Cfg.DCTCP {
		return "dctcp"
	}
	return "tcp"
}

// Build implements Transport.
func (t TCPTransport) Build(build BuildFunc, base topo.Config) Net {
	base.SwitchQueue = t.Queue
	c := build(base)
	return newTCPNet(c, t.Cfg, base.Seed)
}

// StartFlow implements Net. The sender half starts at once on the source
// host, drawing its flow id and both path choices from the source's private
// stream; the receiver half is built on the destination's domain the
// pairwise MinPathDelay later (see NDPNet.StartFlow), before the first SYN,
// by the pooled sender's tcp.Attach command. Its reverse route is a raw
// value drawn at the source, reduced modulo the path count on the
// destination's domain, whose route cache that is. The sender's completion
// releases the receiver there 2*MSL later (fabric.ReleaseFlow).
func (t *TCPNet) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	flow := t.src.flowID(src, 1)
	hs, hd := t.C.HostList()[src], t.C.HostList()[dst]
	r := &t.src.rand[src]
	snd := t.pool(src).NewSender(&t.Hosts[src], &t.Hosts[dst], flow, int16(r.Intn(t.C.Paths(hs.ID, hd.ID))), size, t.Cfg)
	at := hs.EventList().Now() + t.C.MinPathDelay(src, dst)
	t.C.Defer(src, dst, at, snd.Attach(tcp.ReceiverAttach{
		At: at, Pool: t.pool(dst), RevPick: r.Uint64(),
		OnData: opts.OnData, OnCompleteAt: opts.OnDone,
	}), 0)
	snd.Start()
	return tcpFlow{snd}
}

// tcpFlow adapts a TCP sender to the Flow interface.
type tcpFlow struct{ snd *tcp.Sender }

func (f tcpFlow) AckedBytes() int64 { return f.snd.AckedBytes }

// ---------------------------------------------------------------- MPTCP ----

// MPTCPTransport builds multipath-TCP networks: drop-tail queues and
// Cfg.Subflows subflows per flow, pinned to distinct source routes.
type MPTCPTransport struct {
	Cfg   mptcp.Config
	Queue topo.QueueFactory
}

// DefaultMPTCPTransport returns the paper's MPTCP setup: 8 subflows over
// 200-packet drop-tail buffers.
func DefaultMPTCPTransport(mtu int) MPTCPTransport {
	cfg := mptcp.DefaultConfig()
	cfg.TCP.MSS = mtu
	return MPTCPTransport{Cfg: cfg, Queue: fabric.FIFOQueues(200 * mtu)}
}

// Name implements Transport.
func (t MPTCPTransport) Name() string { return "mptcp" }

// Build implements Transport.
func (t MPTCPTransport) Build(build BuildFunc, base topo.Config) Net {
	tn := TCPTransport{Cfg: t.Cfg.TCP, Queue: t.Queue}.Build(build, base).(*TCPNet)
	return &MPTCPNet{TCPNet: tn, Cfg: t.Cfg}
}

// MPTCPNet is a TCP-family network whose uniform flow surface opens MPTCP
// connections instead of single-path flows.
type MPTCPNet struct {
	*TCPNet
	Cfg mptcp.Config
}

// StartFlow implements Net. Construction is split across the shard cut as
// in TCPNet.StartFlow: the subflow senders (forward paths permuted by the
// source's stream) start on the source's domain, and the receivers attach
// on the destination's, permuting reverse paths with a generator seeded
// from a value drawn at the source.
func (m *MPTCPNet) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	// Reserve the stride NewSenderHalf registers: one id per subflow plus
	// the connection's.
	flow := m.src.flowID(src, uint64(m.Cfg.Subflows)+1)
	hs, hd := m.C.HostList()[src], m.C.HostList()[dst]
	r := &m.src.rand[src]
	f := mptcp.NewSenderHalf(&m.Hosts[src], &m.Hosts[dst], flow, size, m.C.Paths(hs.ID, hd.ID), r, m.Cfg, m.pool(src))
	f.OnCompleteAt = opts.OnDone
	at := hs.EventList().Now() + m.C.MinPathDelay(src, dst)
	m.C.Defer(src, dst, at, f.Attach(&m.Hosts[dst], r.Uint64(), opts.OnData, m.pool(dst)), 0)
	f.Start()
	return f
}

// ---------------------------------------------------------------- DCQCN ----

// DCQCNTransport builds lossless RoCE networks: PFC ingress gating, ECN
// marking queues, and the DCQCN rate machine on every host.
type DCQCNTransport struct {
	MTU int
}

// Name implements Transport.
func (t DCQCNTransport) Name() string { return "dcqcn" }

// Build implements Transport.
func (t DCQCNTransport) Build(build BuildFunc, base topo.Config) Net {
	mtu := t.MTU
	base.Lossless = true
	base.SwitchQueue = dcqcn.QueueFactory(mtu)
	if base.LosslessLimit == 0 {
		base.LosslessLimit = 200 * mtu
	}
	if base.PFCXoff == 0 {
		base.PFCXoff = 2 * mtu
	}
	if base.PFCXon == 0 {
		base.PFCXon = mtu
	}
	c := build(base)
	cfg := dcqcn.DefaultConfig()
	cfg.MTU = mtu
	cfg.LineRate = c.LinkRate()
	d := &DCQCNNet{netBase: netBase{C: c, src: newPerSource(c.NumHosts(), base.Seed)},
		Hosts: make([]fabric.Endpoint, c.NumHosts()), Cfg: cfg, nextFlow: 1}
	for i, h := range c.HostList() {
		d.Hosts[i].Init(h, c)
	}
	d.pools = make([]*dcqcn.Pool, c.Shards())
	for i := range d.pools {
		d.pools[i] = dcqcn.NewPool()
	}
	return d
}

// StartFlow implements Net. Like the TCP family, construction is split
// across the shard cut: the sender starts at once on the source's domain
// (flow id and path picks drawn from the source's private stream) and the
// receiver attaches on the destination's the minimum path delay later.
// The release crosses back: the receiver retires at completion on its
// domain and defers the sender's fabric.ReleaseFlow to the source's, which
// stops the sender's rate timers. The attach is a command of the pooled
// sender itself (dcqcn.Attach) over the dcqcn.Split record written here.
func (d *DCQCNNet) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	flow := d.src.flowID(src, 1)
	c := d.C
	hs, hd := c.HostList()[src], c.HostList()[dst]
	r := &d.src.rand[src]
	s := d.pool(src).NewSender(&d.Hosts[src], hd.ID, flow, int16(r.Intn(c.Paths(hs.ID, hd.ID))), size, d.Cfg)
	at := hs.EventList().Now() + c.MinPathDelay(src, dst)
	c.Defer(src, dst, at, s.Attach(dcqcn.Split{
		Dst: &d.Hosts[dst], SrcPool: d.pool(src), DstPool: d.pool(dst), At: at, RevPick: r.Uint64(),
		OnData: opts.OnData, OnCompleteAt: opts.OnDone,
	}), 0)
	s.Start()
	return dcqcnFlow{s}
}

// dcqcnFlow adapts a DCQCN sender to the Flow interface. The fabric is
// lossless, so the bytes its receiver counted are the delivered-goodput
// counter. The receiver only attaches on the destination's domain shortly
// after StartFlow returns; until then no byte has been delivered and
// AckedBytes reports 0. Sharded drivers read it only at window barriers,
// after the attach has been published.
type dcqcnFlow struct{ snd *dcqcn.Sender }

func (f dcqcnFlow) AckedBytes() int64 {
	if rc := f.snd.Receiver(); rc != nil {
		return rc.Bytes
	}
	return 0
}

// ---------------------------------------------------------------- pHost ----

// PHostTransport builds pHost networks: shallow drop-tail queues, per-
// packet ECMP spraying, and a token-pacing pHost agent per host.
type PHostTransport struct {
	Cfg phost.Config
}

// Name implements Transport.
func (t PHostTransport) Name() string { return "phost" }

// Build implements Transport.
func (t PHostTransport) Build(build BuildFunc, base topo.Config) Net {
	base.SwitchQueue = fabric.FIFOQueues(8 * t.Cfg.MTU)
	c := build(base)
	p := &PHostNet{netBase: netBase{C: c, src: perSource{seq: make([]uint64, c.NumHosts())}},
		Hosts: make([]phost.Host, c.NumHosts())}
	for i, h := range c.HostList() {
		p.Hosts[i].Init(h, c, t.Cfg)
	}
	return p
}

// DoneHost implements Net: pHost completion fires at the *sender* (it
// learns completion by counting acks; the receiver cannot tell a dropped
// packet from one not yet arrived).
func (p *PHostNet) DoneHost(src, dst int) int { return src }

// StartFlow implements Net. pHost has no per-byte goodput observer, so
// StartOpts.OnData is ignored; AckedBytes meters progress instead.
// Connect touches only source-host state and defers the receiver's
// construction to the destination's domain the minimum path delay later
// (phost.Attach), as TCPNet.StartFlow does; the flow id is drawn per
// source host.
func (p *PHostNet) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	flow := p.src.flowID(src, 1)
	if size < 0 {
		size = 1 << 40 // effectively unbounded
	}
	s := p.Hosts[src].Connect(&p.Hosts[dst], flow, size, nil)
	s.OnCompleteAt = opts.OnDone
	return s
}
