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
	"ndp/internal/workload"
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

	// Per-source-host flow-id counters; NDP picks paths per packet, so there
	// are no connect-time streams.
	src perSource
}

// newNDPNet wires NDP endpoints onto a built cluster whose switches run the
// NDP queue: return-to-sender, and a listening stack per host seeded from
// seed. Every NDPNet construction site goes through here (NDPTransport.Build,
// and the two runners that pin their own switch-queue seed).
func newNDPNet(c topo.Cluster, hcfg core.Config, seed uint64) *NDPNet {
	core.WireBounce(c.SwitchList())
	n := &NDPNet{C: c, src: perSource{seq: make([]uint64, c.NumHosts())}}
	for i, h := range c.HostList() {
		h := h
		cfg := hcfg
		cfg.Seed = seed + uint64(i)*7919
		st := core.NewStack(h, func(dst int32) [][]int16 { return c.Paths(h.ID, dst) }, cfg)
		st.Listen(nil)
		n.Stacks = append(n.Stacks, st)
	}
	return n
}

// EL returns the cluster's scheduler.
func (n *NDPNet) EL() *sim.EventList { return n.C.EventList() }

// Runner returns the cluster's engine driver.
func (n *NDPNet) Runner() sim.Runner { return n.C.Runner() }

// ------------------------------------------------------------ TCP-family ----

// TCPNet bundles a cluster with per-host demuxes for the TCP/DCTCP/MPTCP
// baselines. Cfg is the flow configuration every flow gets.
type TCPNet struct {
	C     topo.Cluster
	Demux []*fabric.Demux
	Cfg   tcp.Config

	// StartFlow draws flow ids and connect-time random choices per source
	// host; the pinned launchers (below) draw from the net-wide pair.
	src      perSource
	rand     *sim.Rand
	nextFlow uint64

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
// demux per host, the pinned launchers' net-wide stream, and the
// per-source-host counters and streams StartFlow draws from.
func newTCPNet(c topo.Cluster, cfg tcp.Config, seed uint64) *TCPNet {
	n := &TCPNet{C: c, Cfg: cfg, rand: sim.NewRand(seed*48271 + 5), nextFlow: 1,
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

// EL returns the cluster's scheduler.
func (t *TCPNet) EL() *sim.EventList { return t.C.EventList() }

// Runner returns the cluster's engine driver.
func (t *TCPNet) Runner() sim.Runner { return t.C.Runner() }

// --------------------------------------------------------------- DCQCN ----

// DCQCNNet bundles a lossless cluster with demuxes and the DCQCN config.
type DCQCNNet struct {
	C     topo.Cluster
	Demux []*fabric.Demux
	Cfg   dcqcn.Config

	// StartFlow state, owned per source host; nextFlow is the pinned
	// launcher's net-wide counter.
	src      perSource
	nextFlow uint64
	// srcSenders[src] lists every sender started from src, for Close:
	// per-source slices so mid-run appends stay within one shard.
	srcSenders [][]*dcqcn.Sender

	// pools recycles completed flow state, one pool per scheduling domain,
	// indexed by Cluster.ShardOfHost (built up front, read-only at runtime).
	pools []*dcqcn.Pool
}

// EL returns the cluster's scheduler.
func (d *DCQCNNet) EL() *sim.EventList { return d.C.EventList() }

// Runner returns the cluster's engine driver.
func (d *DCQCNNet) Runner() sim.Runner { return d.C.Runner() }

// pool returns the flow-state recycling pool of host's scheduling domain.
func (d *DCQCNNet) pool(host int) *dcqcn.Pool { return d.pools[d.C.ShardOfHost(host)] }

// --------------------------------------------------------------- pHost ----

// PHostNet bundles a drop-tail cluster with pHost agents.
type PHostNet struct {
	C     topo.Cluster
	Hosts []*phost.Host

	// Per-source-host flow-id counters; pHost draws nothing at connect
	// time (packets are sprayed per hop), so there are no streams.
	src perSource
}

// EL returns the cluster's scheduler.
func (p *PHostNet) EL() *sim.EventList { return p.C.EventList() }

// Runner returns the cluster's engine driver.
func (p *PHostNet) Runner() sim.Runner { return p.C.Runner() }

// ----------------------------------------------------- pinned launchers ----

// benchmark/expected.json pins every figure table, and for the TCP family
// and DCQCN a table depends on which stream a flow's connect-time path
// choice is drawn from. StartFlow draws per source host; the tables were
// pinned with the three launchers below, which draw flow ids and paths
// net-wide in launch order and build both endpoints inline (single
// scheduling domain only). They stay, each behind an adapter that is a Net,
// until a PR that may re-pin expected.json deletes adapters and launchers
// together; NDP and pHost draw nothing at connect time and have none.

// pinned returns n with the launcher its figure tables are pinned to.
func pinned(n Net) Net {
	switch n := n.(type) {
	case *TCPNet:
		return pinnedTCP{n}
	case *MPTCPNet:
		return pinnedMPTCP{n}
	case *DCQCNNet:
		return pinnedDCQCN{n}
	}
	return n
}

type pinnedTCP struct{ *TCPNet }

func (p pinnedTCP) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	snd, rcv := p.flow(src, dst, size)
	rcv.OnData, rcv.OnCompleteAt = opts.OnData, opts.OnDone
	return tcpFlow{snd}
}

type pinnedMPTCP struct{ *MPTCPNet }

func (p pinnedMPTCP) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	f := p.mptcpFlow(src, dst, size, p.Cfg, opts.OnData)
	f.OnCompleteAt = opts.OnDone
	return f
}

type pinnedDCQCN struct{ *DCQCNNet }

func (p pinnedDCQCN) StartFlow(src, dst int, size int64, opts StartOpts) Flow {
	rcv := p.flow(src, dst, size, opts.OnDone)
	rcv.OnData = opts.OnData
	return dcqcnBytes{rcv}
}

// dcqcnBytes meters a pinned DCQCN flow by the bytes its receiver counted
// (the fabric is lossless).
type dcqcnBytes struct{ rcv *dcqcn.Receiver }

func (f dcqcnBytes) AckedBytes() int64 { return f.rcv.Bytes }

func (t *TCPNet) flowID(stride uint64) uint64 {
	id := t.nextFlow
	t.nextFlow += stride
	return id
}

// randPath picks one fixed source route — the per-flow ECMP stand-in.
func (t *TCPNet) randPath(src, dst int32) []int16 {
	paths := t.C.Paths(src, dst)
	return paths[t.rand.Intn(len(paths))]
}

// flow starts a single-path TCP (or DCTCP, via Cfg.DCTCP) transfer.
func (t *TCPNet) flow(src, dst int, size int64) (*tcp.Sender, *tcp.Receiver) {
	flow := t.flowID(1)
	hs, hd := t.C.HostList()[src], t.C.HostList()[dst]
	snd := t.pool(src).NewSender(hs, t.Demux[src], hd.ID, flow, t.randPath(hs.ID, hd.ID), t.source(size), t.Cfg)
	rcv := t.pool(dst).NewReceiver(hd, t.Demux[dst], hs.ID, flow, t.randPath(hd.ID, hs.ID))
	snd.Start()
	return snd, rcv
}

// mptcpFlow starts a multipath transfer, subflows pinned to paths permuted
// by the net-wide stream (forward, then reverse).
func (t *TCPNet) mptcpFlow(src, dst int, size int64, cfg mptcp.Config, onData func(int64)) *mptcp.Flow {
	flow := t.flowID(uint64(cfg.Subflows) + 1)
	hs, hd := t.C.HostList()[src], t.C.HostList()[dst]
	f := mptcp.NewSenderHalf(hs, hd.ID, t.Demux[src], flow, size, t.C.Paths(hs.ID, hd.ID), t.rand, cfg, nil)
	f.AttachReceivers(hd, t.Demux[dst], t.C.Paths(hd.ID, hs.ID), t.rand, onData, nil)
	f.Start()
	return f
}

// flow starts a DCQCN transfer on a fixed path (RoCE is single-path),
// registering both endpoints synchronously.
func (d *DCQCNNet) flow(src, dst int, size int64, onDone func(at sim.Time)) *dcqcn.Receiver {
	flow := d.nextFlow
	d.nextFlow++
	hs, hd := d.C.HostList()[src], d.C.HostList()[dst]
	fwd := d.C.Paths(hs.ID, hd.ID)
	rev := d.C.Paths(hd.ID, hs.ID)
	r := sim.NewRand(flow * 2654435761)
	s := d.pool(src).NewSender(hs, hd.ID, flow, fwd[r.Intn(len(fwd))], size, d.Cfg)
	rc := d.pool(dst).NewReceiver(hd, hs.ID, flow, rev[r.Intn(len(rev))], d.Cfg)
	// On a lossless fixed path nothing arrives after the FIN, so both
	// endpoints retire as soon as the receiver completes — after the
	// caller's hook, which may start the next flow, and after stopping the
	// sender's rate timers, which otherwise tick forever.
	rc.OnComplete = func(rc *dcqcn.Receiver) {
		if onDone != nil {
			onDone(rc.CompletedAt)
		}
		d.Demux[src].Unregister(flow)
		d.Demux[dst].Unregister(flow)
		s.Stop()
		d.pool(src).RetireSender(s)
		d.pool(dst).RetireReceiver(rc)
	}
	d.Demux[src].Register(flow, s)
	d.Demux[dst].Register(flow, rc)
	d.srcSenders[src] = append(d.srcSenders[src], s)
	s.Start()
	return rc
}

// ------------------------------------------------------------ workloads ----

// contender is one transport's entry in a figure that puts several through
// the same workload: the runner is written once and loops over these.
type contender struct {
	name  string
	build func(seed uint64) Net
}

// on returns the build function of transport t on one topology recipe; the
// baselines whose tables are pinned to them get their pinned launchers.
func on(t Transport, build BuildFunc) func(seed uint64) Net {
	return func(seed uint64) Net { return pinned(t.Build(build, topo.Config{Seed: seed})) }
}

// contenders returns the named transports as the paper sets them up for the
// given MTU, each on the same topology recipe, in the order asked: NDP
// (8-packet trimming queues), MPTCP (200-packet drop-tail, 8 subflows on
// distinct paths), DCTCP (ECN queues, one fixed path per flow as the ECMP
// stand-in), DCQCN (lossless fabric, rate-based, single path), TCP
// (8-packet drop-tail, 200ms MinRTO) and pHost (8-packet drop-tail,
// per-packet spraying).
func contenders(build BuildFunc, mtu int, names ...string) []contender {
	out := make([]contender, len(names))
	for i, name := range names {
		var t Transport
		switch name {
		case "NDP":
			t = DefaultNDPTransport(mtu)
		case "MPTCP":
			t = DefaultMPTCPTransport(mtu)
		case "DCTCP":
			t = DCTCPTransport(mtu)
		case "DCQCN":
			t = DCQCNTransport{MTU: mtu}
		case "TCP":
			t = PlainTCPTransport(mtu)
		case "pHost":
			cfg := phost.DefaultConfig()
			cfg.MTU = mtu
			t = PHostTransport{Cfg: cfg}
		default:
			panic("harness: no contender named " + name)
		}
		out[i] = contender{name, on(t, build)}
	}
	return out
}

// startMatrix starts one unbounded flow per host following the dst matrix.
func startMatrix(n Net, dst []int) []Flow {
	flows := make([]Flow, len(dst))
	for src, d := range dst {
		flows[src] = n.StartFlow(src, d, -1, StartOpts{})
	}
	return flows
}

// permGoodput runs the permutation matrix drawn from seed on n, closes n and
// returns per-flow goodput in Gb/s over the window after the warmup.
func permGoodput(n Net, seed uint64, warm, window sim.Time) []float64 {
	defer n.Close()
	dst := workload.Permutation(n.Cluster().NumHosts(), sim.NewRand(seed))
	return runWarmMeasure(n.EL(), warm, window, startMatrix(n, dst))
}

// incast is a launched incast: its flows in sender order, how many have
// completed, and the first and last completion times, from the launch.
type incast struct {
	flows       []Flow
	done        int
	first, last sim.Time
}

// startIncast launches one flow of size bytes from every sender to receiver.
func startIncast(n Net, receiver int, senders []int, size int64) *incast {
	in := &incast{flows: make([]Flow, len(senders))}
	start := n.EL().Now()
	opts := StartOpts{OnDone: func(at sim.Time) {
		fct := at - start
		if in.done == 0 || fct < in.first {
			in.first = fct
		}
		if fct > in.last {
			in.last = fct
		}
		in.done++
	}}
	for i, s := range senders {
		in.flows[i] = n.StartFlow(s, receiver, size, opts)
	}
	return in
}

// runWarmMeasure runs the event list through a warmup, snapshots the flows'
// goodput counters, runs the measurement window, and returns per-flow Gb/s.
func runWarmMeasure(el *sim.EventList, warm, window sim.Time, flows []Flow) []float64 {
	el.RunUntil(warm)
	at0 := make([]int64, len(flows))
	for i, f := range flows {
		at0[i] = f.AckedBytes()
	}
	el.RunUntil(warm + window)
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = stats.Gbps(f.AckedBytes()-at0[i], window)
	}
	return out
}

// distOf collects samples into a distribution.
func distOf(xs []float64) *stats.Dist {
	var d stats.Dist
	for _, v := range xs {
		d.Add(v)
	}
	return &d
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
