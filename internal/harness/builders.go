package harness

import (
	"ndp/internal/core"
	"ndp/internal/dcqcn"
	"ndp/internal/fabric"
	"ndp/internal/mptcp"
	"ndp/internal/phost"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/tcp"
	"ndp/internal/topo"
)

// BuildFunc constructs a topology from a base config (queue factory and
// seed already filled in by the per-protocol builder).
type BuildFunc func(topo.Config) topo.Cluster

// FatTreeBuilder returns a BuildFunc for a k-ary FatTree.
func FatTreeBuilder(k int) BuildFunc {
	return func(c topo.Config) topo.Cluster { return topo.NewFatTree(k, c) }
}

// OversubFatTreeBuilder returns a BuildFunc for an oversubscribed FatTree.
func OversubFatTreeBuilder(k, oversub int) BuildFunc {
	return func(c topo.Config) topo.Cluster { return topo.NewFatTreeOversub(k, oversub, c) }
}

// TwoTierBuilder returns a BuildFunc for a leaf/spine network.
func TwoTierBuilder(tors, hostsPerTor, spines int) BuildFunc {
	return func(c topo.Config) topo.Cluster { return topo.NewTwoTier(tors, hostsPerTor, spines, c) }
}

// BackToBackBuilder returns a BuildFunc for two directly-wired hosts.
func BackToBackBuilder() BuildFunc {
	return func(c topo.Config) topo.Cluster { return topo.NewBackToBack(c) }
}

// ---------------------------------------------------------------- NDP ----

// NDPNet bundles an NDP-enabled cluster with its per-host stacks.
type NDPNet struct {
	C      topo.Cluster
	Stacks []*core.Stack

	// Per-source-host flow-id counters for StartFlow (the legacy Transfer
	// surface draws from core.NextFlowID); NDP picks paths per packet, so
	// there are no connect-time streams.
	src perSource
}

// BuildNDP constructs a topology with NDP switch queues and a listening NDP
// stack on every host. It is a thin wrapper over NDPTransport, the single
// construction path (transport.go).
func BuildNDP(build BuildFunc, base topo.Config, scfg core.SwitchConfig, hcfg core.Config) *NDPNet {
	return NDPTransport{Switch: scfg, Host: hcfg}.Build(build, base).(*NDPNet)
}

// EL returns the cluster's scheduler.
func (n *NDPNet) EL() *sim.EventList { return n.C.EventList() }

// Runner returns the cluster's engine driver.
func (n *NDPNet) Runner() sim.Runner { return n.C.Runner() }

// Transfer starts one NDP flow.
func (n *NDPNet) Transfer(src, dst int, size int64, opts core.FlowOpts) *core.Sender {
	return n.Stacks[src].Connect(n.Stacks[dst], size, opts)
}

// Incast launches len(senders) flows of size bytes at the receiver,
// recording each flow's FCT into fcts (microseconds) and returning a
// pointer to the running maximum (last-flow completion).
func (n *NDPNet) Incast(receiver int, senders []int, size int64, fcts *stats.Dist) *sim.Time {
	last := new(sim.Time)
	for _, s := range senders {
		start := n.EL().Now()
		n.Transfer(s, receiver, size, core.FlowOpts{OnReceiverDone: func(r *core.Receiver) {
			fct := r.CompletedAt - start
			if fcts != nil {
				fcts.AddTime(fct)
			}
			if r.CompletedAt > *last {
				*last = r.CompletedAt
			}
		}})
	}
	return last
}

// Permutation starts one unbounded flow per host following the dst matrix
// and returns the senders for goodput metering.
func (n *NDPNet) Permutation(dst []int) []*core.Sender {
	out := make([]*core.Sender, 0, len(dst))
	for src, d := range dst {
		out = append(out, n.Transfer(src, d, -1, core.FlowOpts{}))
	}
	return out
}

// ------------------------------------------------------------ TCP-family ----

// TCPNet bundles a cluster with per-host demuxes for the TCP/DCTCP/MPTCP
// baselines. Cfg is the flow configuration StartFlow applies; the Flow and
// MPTCPFlow methods take explicit configs instead.
type TCPNet struct {
	C     topo.Cluster
	Demux []*fabric.Demux
	Rand  *sim.Rand
	Cfg   tcp.Config

	nextFlow uint64

	// The uniform StartFlow surface draws flow ids and connect-time random
	// choices per source host; the legacy Flow/MPTCPFlow methods
	// (single-domain figure runners) still use the shared Rand/nextFlow.
	src perSource

	// pools recycles completed flow state, one pool per scheduling domain,
	// indexed by Cluster.ShardOfHost. The slice is built up front and
	// read-only at runtime: flows may start from any shard's goroutine, and
	// each shard only ever touches its own pool.
	pools []*tcp.Pool
}

// perSource is the StartFlow state each source host owns: a flow-id counter
// and, for transports that pick paths at connect time, a random stream.
// Flows may start mid-run from any shard (closed-loop restarts), so this
// state must be owned by the source host's shard: a net-wide counter or
// stream would be both a data race and an ordering entanglement — its values
// would depend on which shard's flow start happened to execute first.
type perSource struct {
	seq  []uint64
	rand []*sim.Rand
}

// newPerSource makes the counters and one connect-time stream per source
// host, created up front (mid-run creation would race across shard
// goroutines).
func newPerSource(hosts int, seed uint64) perSource {
	p := perSource{seq: make([]uint64, hosts), rand: make([]*sim.Rand, hosts)}
	for i := range p.rand {
		p.rand[i] = sim.NewRand(seed*48271 + 5 + (uint64(i)+1)*0x9e3779b97f4a7c15)
	}
	return p
}

// flowID allocates stride consecutive flow ids from the source host's
// private counter; ids are globally unique because the host index occupies
// the high word.
func (p *perSource) flowID(src int, stride uint64) uint64 {
	id := uint64(src+1)<<32 | (p.seq[src] + 1)
	p.seq[src] += stride
	return id
}

// newTCPNet wires the shared TCP-family state onto a built cluster: a
// demux per host, the legacy net-wide stream, and the per-source-host
// counters and streams that the uniform StartFlow surface requires. Every
// TCPNet construction site must go through here — a literal &TCPNet{...}
// would leave src empty and StartFlow would panic.
func newTCPNet(c topo.Cluster, cfg tcp.Config, seed uint64) *TCPNet {
	n := &TCPNet{C: c, Cfg: cfg, Rand: sim.NewRand(seed*48271 + 5), nextFlow: 1,
		src: newPerSource(c.NumHosts(), seed)}
	for _, h := range c.HostList() {
		d := fabric.NewDemux()
		h.Stack = d
		n.Demux = append(n.Demux, d)
	}
	n.pools = make([]*tcp.Pool, c.Shards())
	for i := range n.pools {
		n.pools[i] = tcp.NewPool()
	}
	return n
}

// pool returns the flow-state recycling pool of host's scheduling domain.
func (t *TCPNet) pool(host int) *tcp.Pool { return t.pools[t.C.ShardOfHost(host)] }

// BuildTCPFamily constructs a topology with the given switch queues and a
// demux on every host; cfg is the flow configuration the uniform StartFlow
// surface applies (it must match the queue discipline — e.g. DCTCP flows
// over ECN queues). It is a thin wrapper over TCPTransport, the single
// construction path (transport.go). The Flow/MPTCPFlow methods take
// explicit per-flow configs instead.
func BuildTCPFamily(build BuildFunc, base topo.Config, queue topo.QueueFactory, cfg tcp.Config) *TCPNet {
	return TCPTransport{Cfg: cfg, Queue: queue}.Build(build, base).(*TCPNet)
}

// EL returns the cluster's scheduler.
func (t *TCPNet) EL() *sim.EventList { return t.C.EventList() }

// Runner returns the cluster's engine driver.
func (t *TCPNet) Runner() sim.Runner { return t.C.Runner() }

func (t *TCPNet) flowID(stride uint64) uint64 {
	id := t.nextFlow
	t.nextFlow += stride
	return id
}

// randPath picks one fixed source route — the per-flow ECMP stand-in.
func (t *TCPNet) randPath(src, dst int32) []int16 {
	paths := t.C.Paths(src, dst)
	return paths[t.Rand.Intn(len(paths))]
}

// Flow starts a single-path TCP (or DCTCP, via cfg.DCTCP) transfer.
// size < 0 runs an unbounded flow.
func (t *TCPNet) Flow(src, dst int, size int64, cfg tcp.Config, onDone func(*tcp.Receiver)) (*tcp.Sender, *tcp.Receiver) {
	flow := t.flowID(1)
	hs, hd := t.C.HostList()[src], t.C.HostList()[dst]
	var source tcp.DataSource
	if size < 0 {
		source = unboundedSource{mss: cfg.MSS}
	} else {
		source = tcp.NewFixedSource(size, cfg.MSS)
	}
	snd := t.pool(src).NewSender(hs, t.Demux[src], hd.ID, flow, t.randPath(hs.ID, hd.ID), source, cfg)
	rcv := t.pool(dst).NewReceiver(hd, t.Demux[dst], hs.ID, flow, t.randPath(hd.ID, hs.ID))
	rcv.OnComplete = onDone
	snd.Start()
	return snd, rcv
}

type unboundedSource struct{ mss int }

func (u unboundedSource) Claim() int      { return u.mss }
func (u unboundedSource) Exhausted() bool { return false }

// MPTCPFlow starts a multipath transfer with the given config.
func (t *TCPNet) MPTCPFlow(src, dst int, size int64, cfg mptcp.Config, onDone func(*mptcp.Flow)) *mptcp.Flow {
	flow := t.flowID(uint64(cfg.Subflows) + 1)
	hs, hd := t.C.HostList()[src], t.C.HostList()[dst]
	f := mptcp.New(hs, hd, t.Demux[src], t.Demux[dst], flow, size,
		t.C.Paths(hs.ID, hd.ID), t.C.Paths(hd.ID, hs.ID), t.Rand, cfg)
	f.OnComplete = onDone
	f.Start()
	return f
}

// --------------------------------------------------------------- DCQCN ----

// DCQCNNet bundles a lossless cluster with demuxes and the DCQCN config.
type DCQCNNet struct {
	C     topo.Cluster
	Demux []*fabric.Demux
	Cfg   dcqcn.Config

	// Legacy single-domain surface (the Flow method used by the figure
	// runners): a net-wide flow-id counter and synchronous two-sided
	// registration.
	nextFlow uint64
	senders  []*dcqcn.Sender

	// Shard-safe StartFlow state, owned per source host.
	src perSource
	// srcSenders[src] lists every sender started from src, for StopAll:
	// per-source slices so mid-run appends stay within one shard.
	srcSenders [][]*dcqcn.Sender

	// pools recycles completed flow state, one pool per scheduling domain,
	// indexed by Cluster.ShardOfHost (built up front, read-only at runtime).
	pools []*dcqcn.Pool
}

// BuildDCQCN constructs a PFC-enabled topology with DCQCN ECN queues. It is
// a thin wrapper over DCQCNTransport, the single construction path
// (transport.go).
func BuildDCQCN(build BuildFunc, base topo.Config, mtu int) *DCQCNNet {
	return DCQCNTransport{MTU: mtu}.Build(build, base).(*DCQCNNet)
}

// EL returns the cluster's scheduler.
func (d *DCQCNNet) EL() *sim.EventList { return d.C.EventList() }

// Runner returns the cluster's engine driver.
func (d *DCQCNNet) Runner() sim.Runner { return d.C.Runner() }

// pool returns the flow-state recycling pool of host's scheduling domain.
func (d *DCQCNNet) pool(host int) *dcqcn.Pool { return d.pools[d.C.ShardOfHost(host)] }

// Flow starts a DCQCN transfer on a fixed path (RoCE is single-path). It
// is the legacy single-domain surface: both endpoints register
// synchronously, so it must only be used on unsharded networks (the
// figure runners); sharded drivers go through StartFlow.
func (d *DCQCNNet) Flow(src, dst int, size int64, onDone func(*dcqcn.Receiver)) (*dcqcn.Sender, *dcqcn.Receiver) {
	flow := d.nextFlow
	d.nextFlow++
	hs, hd := d.C.HostList()[src], d.C.HostList()[dst]
	fwd := d.C.Paths(hs.ID, hd.ID)
	rev := d.C.Paths(hd.ID, hs.ID)
	r := sim.NewRand(flow * 2654435761)
	s := d.pool(src).NewSender(hs, hd.ID, flow, fwd[r.Intn(len(fwd))], size, d.Cfg)
	rc := d.pool(dst).NewReceiver(hd, hs.ID, flow, rev[r.Intn(len(rev))], d.Cfg)
	// On a lossless fixed path nothing arrives after the FIN, so both
	// endpoints retire as soon as the receiver completes — after stopping
	// the sender's rate timers, which otherwise tick forever.
	rc.OnComplete = func(rc *dcqcn.Receiver) {
		if onDone != nil {
			onDone(rc)
		}
		d.Demux[src].Unregister(flow)
		d.Demux[dst].Unregister(flow)
		s.Stop()
		d.pool(src).RetireSender(s)
		d.pool(dst).RetireReceiver(rc)
	}
	d.Demux[src].Register(flow, s)
	d.Demux[dst].Register(flow, rc)
	d.senders = append(d.senders, s)
	s.Start()
	return s, rc
}

// StopAll halts every sender's timers (cleanup for unbounded flows).
// Stopping an already-retired sender is a harmless no-op; it runs after
// the simulation, so cross-shard reads are barrier-published.
func (d *DCQCNNet) StopAll() {
	for _, s := range d.senders {
		s.Stop()
	}
	for _, list := range d.srcSenders {
		for _, s := range list {
			s.Stop()
		}
	}
}

// --------------------------------------------------------------- pHost ----

// PHostNet bundles a drop-tail cluster with pHost agents.
type PHostNet struct {
	C     topo.Cluster
	Hosts []*phost.Host

	// Per-source-host flow-id counters; pHost draws nothing at connect
	// time (packets are sprayed per hop), so there are no streams.
	src perSource
}

// BuildPHost constructs the §6.2 comparison network: 8-packet drop-tail
// queues, per-packet ECMP spraying, pHost endpoints. It is a thin wrapper
// over PHostTransport, the single construction path (transport.go).
func BuildPHost(build BuildFunc, base topo.Config, cfg phost.Config) *PHostNet {
	return PHostTransport{Cfg: cfg}.Build(build, base).(*PHostNet)
}

// EL returns the cluster's scheduler.
func (p *PHostNet) EL() *sim.EventList { return p.C.EventList() }

// Runner returns the cluster's engine driver.
func (p *PHostNet) Runner() sim.Runner { return p.C.Runner() }

// ------------------------------------------------------------- metering ----

// meter snapshots sender-side goodput counters so throughput can be
// measured over a warm interval.
type meter struct {
	read func() int64
	at0  int64
}

func newMeter(read func() int64) *meter { return &meter{read: read} }

func (m *meter) start()       { m.at0 = m.read() }
func (m *meter) bytes() int64 { return m.read() - m.at0 }

// senderMeters wraps NDP senders' acked-byte counters for goodput
// measurement with runWarmMeasure.
func senderMeters(senders []*core.Sender) []*meter {
	meters := make([]*meter, len(senders))
	for i, s := range senders {
		s := s
		meters[i] = newMeter(func() int64 { return s.AckedBytes() })
	}
	return meters
}

// runWarmMeasure runs the event list through a warmup, snapshots the
// meters, runs the measurement window, and returns per-meter Gb/s.
func runWarmMeasure(el *sim.EventList, warm, window sim.Time, meters []*meter) []float64 {
	el.RunUntil(warm)
	for _, m := range meters {
		m.start()
	}
	el.RunUntil(warm + window)
	out := make([]float64, len(meters))
	for i, m := range meters {
		out[i] = stats.Gbps(m.bytes(), window)
	}
	return out
}

// utilization converts per-flow Gb/s into fraction of aggregate host
// capacity.
func utilization(gbps []float64, linkRate int64) float64 {
	var sum float64
	for _, g := range gbps {
		sum += g
	}
	return sum / (float64(len(gbps)) * float64(linkRate) / 1e9)
}

// Blaster is an unresponsive line-rate data source used by the Figure 2
// switch-service-model experiment: it emits MTU-sized packets on a fixed
// one-hop route forever, ignoring all feedback.
type Blaster struct {
	host  *fabric.Host
	arena *fabric.Arena
	dst   int32
	flow  uint64
	path  []int16
	mtu   int
	gap   sim.Time
	el    *sim.EventList
	stop  bool
}

// StartBlast begins blasting from src toward dst on the first enumerated
// path, with the given static phase offset for the first packet. Real
// senders are never synchronized to the picosecond, but their relative
// phases are stable at identical rates — exactly the regularity that
// produces CP's phase effects (and that NDP's trim coin must break).
func StartBlast(c topo.Cluster, src, dst int, flow uint64, mtu int, offset sim.Time) *Blaster {
	h := c.HostList()[src]
	b := &Blaster{
		host:  h,
		arena: fabric.AttachArena(h.EventList()),
		dst:   c.HostList()[dst].ID,
		flow:  flow,
		path:  c.Paths(h.ID, c.HostList()[dst].ID)[0],
		mtu:   mtu,
		gap:   sim.TransmissionTime(mtu, c.LinkRate()),
		el:    c.EventList(),
	}
	b.el.ScheduleAfter(offset, b, 0)
	return b
}

// OnEvent emits one packet and schedules the next (sim.Handler: the typed
// event costs no allocation per packet).
func (b *Blaster) OnEvent(uint64) {
	if b.stop {
		return
	}
	seq := int64(0)
	p := b.arena.NewData(b.flow, b.host.ID, b.dst, seq, int32(b.mtu))
	p.Path = b.path
	b.host.Send(p)
	b.el.ScheduleAfter(b.gap, b, 0)
}

// Stop halts the blaster.
func (b *Blaster) Stop() { b.stop = true }
