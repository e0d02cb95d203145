// Package topo builds the Clos topologies the paper evaluates on: k-ary
// 3-tier FatTrees (optionally oversubscribed), 2-tier leaf/spine networks,
// and degenerate test topologies (back-to-back hosts, single switch). Each
// resolves a source route — an index a sender draws below Paths' count —
// switch by switch, and routes the rest by destination with per-packet ECMP
// (the baselines that spray, and NDP's return-to-sender headers).
package topo

import (
	"fmt"
	"sync"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// QueueFactory builds the queue disciplines of one class of port of a
// topology — every switch egress, or every host NIC — in one call: one queue
// per seed, in order, so that a discipline can carve them all from one slab
// (fabric.QueueSlab). A port's seed is FNV-1a over its queue name: the
// port's own for a switch egress ("tor0.1->agg0.0", "tor0.0->h3"), the
// host's for a NIC ("h3"). It is a stable identity, independent of
// construction order and shard layout, for disciplines that draw random
// numbers. Experiments pick the discipline per protocol: NDP switch queues,
// ECN queues for DCTCP, plain drop-tail for TCP.
type QueueFactory func(seeds []uint64) []fabric.Queue

// LinkRateBps is the line rate of every link a topology builds, 10Gb/s as in
// the paper; FatTree.DegradeLink slows one link afterwards.
const LinkRateBps int64 = 10e9

// Config carries the physical parameters shared by all topology builders.
type Config struct {
	// LinkDelay is the one-way propagation delay per link (default 500ns).
	LinkDelay sim.Time
	// SwitchQueue builds each switch egress queue (default: drop-tail FIFO
	// of 8 jumbograms).
	SwitchQueue QueueFactory
	// Lossless enables PFC at every switch.
	Lossless bool
	// LosslessLimit, PFCXoff, PFCXon configure PFC byte budgets; zero
	// values take defaults sized in MTUs.
	LosslessLimit, PFCXoff, PFCXon int
	// Seed seeds the topology's private RNG (per-packet ECMP choices).
	Seed uint64
	// Shards partitions the topology into this many per-core shards, each
	// with its own event list, advanced in conservative windows
	// (sim.MultiRunner) whose lookahead is one link delay: every link has
	// that delay, so nothing crosses a cut faster. 0 or 1 keeps the proven
	// single-list engine. Results are bit-identical for every value. Every
	// partition follows one rule (groupShard): contiguous runs of groups
	// per shard — FatTree pods (the cut runs through the agg<->core
	// layer), TwoTier ToR groups (spines spread across shards), Jellyfish
	// switches in the order of the ring its wiring starts from.
	// BackToBack supports only 1. Lossless (PFC) fabrics shard too:
	// pause/resume transitions crossing a cut travel as keyed cross-shard
	// entries over the reverse channel, one link delay ahead.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.LinkDelay == 0 {
		c.LinkDelay = 500 * sim.Nanosecond
	}
	if c.SwitchQueue == nil {
		c.SwitchQueue = fabric.FIFOQueues(8 * 9000)
	}
	if c.LosslessLimit == 0 {
		c.LosslessLimit = 200 * 9000
	}
	if c.PFCXoff == 0 {
		c.PFCXoff = 2 * 9000
	}
	if c.PFCXon == 0 {
		c.PFCXon = 9000
	}
	return c
}

// Cluster is the view of a topology that transport harnesses need: the
// scheduler (single-list or sharded), the hosts, the source-route count
// and telemetry. All concrete topologies (*FatTree, *TwoTier, *BackToBack)
// implement it.
type Cluster interface {
	// Paths, MinPathDelay and Defer are what every host's transport
	// endpoint is given of its cluster.
	fabric.Cluster
	EventList() *sim.EventList
	Runner() sim.Runner
	Shards() int
	ShardOfHost(h int) int
	LinkDelay() sim.Time
	HostList() []*fabric.Host
	SwitchList() []*fabric.Switch
	NumHosts() int
	LinkRate() int64
	CollectStats() SwitchStats
	PacketHops() int64
	SerEndEvents() int64
	CommandEvents() int64
	// PacketsInUse sums the outstanding packets of every shard arena: the
	// leak counter the golden suite asserts returns to zero after Close.
	// After Close it is the count Close left, read from no list.
	PacketsInUse() int64
	// ArenaPeak is the most packets any one shard arena held at once.
	ArenaPeak() int64
	// Close releases engine resources (the sharded runner's persistent
	// shard workers) and frees every packet the fabric still holds, so the
	// arena leak counters settle; a network that settled at zero hands its
	// event lists and arenas to the next network built. Nothing may read
	// the network's lists after Close. Idempotent.
	Close()
}

// Network is the common state every topology exposes: the per-shard event
// lists and their runner, the hosts and the switches.
type Network struct {
	EL       *sim.EventList // shard 0's list (the only list when unsharded)
	Rand     *sim.Rand      // construction-time randomness (graph wiring)
	Hosts    []*fabric.Host
	Switches []*fabric.Switch

	cfg    Config
	els    []*sim.EventList
	runner sim.Runner
	// boxes[src][dst] is the cross-shard mailbox for each directed shard
	// pair; inboxes[dst] is the receiving slot arena. Both nil when
	// unsharded.
	boxes   [][]fabric.CrossBox
	inboxes []*fabric.Inbox
	// inboundAt[dst] is the earliest entry published to shard dst at the
	// last exchange (sim.Mailboxes).
	inboundAt []sim.Time
	hostShard []int
	swShard   []int
	released  bool       // Close already freed the fabric's held packets
	leaked    int64      // PacketsInUse when Close had freed them
	swRand    []sim.Rand // per-switch ECMP stream, index = switch ID
	cmdSeq    []uint64   // per-host command emission counters (Defer ord)
	// The components, carved from one array per kind that the builder sizes
	// up front (reserve): a build allocates per kind, not per port or node.
	// portLists backs every switch's Ports.
	hostSlab   []fabric.Host
	switchSlab []fabric.Switch
	portSlab   []fabric.Port
	portLists  []*fabric.Port
}

// EventList returns shard 0's scheduler — the simulation scheduler for
// unsharded topologies. Pre-run setup code may use it; mid-run components
// must schedule on their own host's list.
func (n *Network) EventList() *sim.EventList { return n.EL }

// Runner returns the engine driver: the event list itself when unsharded,
// or the conservative windowed multi-list runner.
func (n *Network) Runner() sim.Runner { return n.runner }

// Shards returns the number of partitions the topology runs as.
func (n *Network) Shards() int { return len(n.els) }

// ShardOfHost returns the shard owning host h.
func (n *Network) ShardOfHost(h int) int { return n.hostShard[h] }

// ShardEventList returns the scheduler of one shard.
func (n *Network) ShardEventList(shard int) *sim.EventList { return n.els[shard] }

// HostList returns the hosts in id order.
func (n *Network) HostList() []*fabric.Host { return n.Hosts }

// SwitchList returns all switches.
func (n *Network) SwitchList() []*fabric.Switch { return n.Switches }

// LinkRate returns the line rate in bits per second.
func (n *Network) LinkRate() int64 { return LinkRateBps }

// LinkDelay returns the per-link one-way propagation delay.
func (n *Network) LinkDelay() sim.Time { return n.cfg.LinkDelay }

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

func (n *Network) init(cfg Config) {
	if cfg.Shards > 1 {
		panic("topo: this topology does not partition (sharding is supported for FatTree, TwoTier and Jellyfish)")
	}
	n.initShards(cfg, 1)
}

// Close stops the sharded runner's persistent shard workers and frees every
// packet the fabric still holds (port pipelines, queues, lossless ingress
// backlogs, cross-shard mailboxes) back into the shard arenas. A run that
// hits its deadline mid-traffic still ends with PacketsInUse() == 0 unless
// something truly leaked. A network that settled at zero hands its
// scheduling domains, each event list with its arena, to the next network
// built (recycle); a leaky one leaves them to the GC. Idempotent.
func (n *Network) Close() {
	if mr, ok := n.runner.(*sim.MultiRunner); ok {
		mr.Close()
	}
	if n.released {
		return
	}
	n.released = true
	for _, h := range n.Hosts {
		if h.NIC != nil {
			h.NIC.ReleasePackets()
		}
	}
	for _, sw := range n.Switches {
		sw.ReleasePackets()
	}
	for i := range n.boxes {
		for j := range n.boxes[i] {
			n.boxes[i][j].ReleasePackets()
		}
	}
	for _, ib := range n.inboxes {
		ib.ReleasePackets()
	}
	if n.leaked = n.packetsInUse(); n.leaked == 0 {
		recycle(n.els)
	} else {
		domains.Lock()
		domains.leaky++
		domains.Unlock()
	}
}

// PacketsInUse implements Cluster: outstanding packets across shard arenas,
// plus those in flight between two of them in a cross-shard mailbox. After
// Close it is what Close left: the lists may serve another network by then.
func (n *Network) PacketsInUse() int64 {
	if n.released {
		return n.leaked
	}
	return n.packetsInUse()
}

func (n *Network) packetsInUse() int64 {
	var total int64
	for _, el := range n.els {
		total += arena(el).InUse()
	}
	for i := range n.boxes {
		for j := range n.boxes[i] {
			total += n.boxes[i][j].Packets()
		}
	}
	return total
}

// ArenaPeak implements Cluster: the most packets one shard arena held at
// once, counting those it adopted from other shards.
func (n *Network) ArenaPeak() int64 {
	var peak int64
	for _, el := range n.els {
		peak = max(peak, arena(el).Peak())
	}
	return peak
}

// arena is the packet arena of a scheduling domain (initShards attaches
// one to every list).
func arena(el *sim.EventList) *fabric.Arena { return el.Allocator().(*fabric.Arena) }

// domains is the process-wide free-list of scheduling domains: the event
// lists, each with its arena attached, of closed networks that settled at
// zero packets in use. It is a LIFO stack under a mutex, not a sync.Pool,
// which the GC would drain between one simulation and the next; it never
// holds more lists than were ever live at once, since a list is only made
// when the stack is empty. made counts the lists made fresh, leaky the
// closed networks whose lists went to the GC instead.
var domains struct {
	sync.Mutex
	free        []*sim.EventList
	made, leaky int64
}

// newDomain takes a closed network's list, or makes one with an arena.
func newDomain() *sim.EventList {
	domains.Lock()
	defer domains.Unlock()
	if n := len(domains.free); n > 0 {
		el := domains.free[n-1]
		domains.free[n-1] = nil
		domains.free = domains.free[:n-1]
		return el
	}
	domains.made++
	el := sim.NewEventList()
	fabric.AttachArena(el)
	return el
}

// recycle hands a closed network's lists to the next network. Packets
// migrate between the shards' arenas, so every arena of the network is
// rebuilt at once, each from its own chunks and trimmed to its peak; every
// list is reset to a new one's state. The lists go on the stack last shard
// first, so that the next network of as many shards takes each shard's own
// list back.
func recycle(els []*sim.EventList) {
	for _, el := range els {
		arena(el).Recycle()
		el.Reset()
	}
	domains.Lock()
	for i := len(els) - 1; i >= 0; i-- {
		domains.free = append(domains.free, els[i])
	}
	domains.Unlock()
}

// DomainStats is what the free-list of scheduling domains has done since the
// process started: Made lists were made fresh, and Leaky closed networks
// still held a packet, so their lists went to the GC instead of the next
// network.
type DomainStats struct{ Made, Leaky int64 }

// Domains returns the free-list's counters.
func Domains() DomainStats {
	domains.Lock()
	defer domains.Unlock()
	return DomainStats{Made: domains.made, Leaky: domains.leaky}
}

// initShards sets up the common state for a topology split into shards
// event-list domains. Builders that support partitioning call it with
// their clamped shard count; everyone else goes through init.
func (n *Network) initShards(cfg Config, shards int) {
	if shards < 1 {
		shards = 1
	}
	n.cfg = cfg
	n.els = make([]*sim.EventList, shards)
	for i := range n.els {
		// Every shard owns one packet arena; components scheduled on this
		// list allocate from it and free into it.
		n.els[i] = newDomain()
	}
	n.EL = n.els[0]
	n.Rand = sim.NewRand(cfg.Seed ^ 0x9e3779b97f4a7c15)
	if shards > 1 {
		n.boxes = make([][]fabric.CrossBox, shards)
		n.inboxes = make([]*fabric.Inbox, shards)
		n.inboundAt = make([]sim.Time, shards)
		for i := range n.boxes {
			n.boxes[i] = make([]fabric.CrossBox, shards)
			n.inboxes[i] = fabric.NewInbox(n.els[i])
		}
		// Every link is built with the link delay (connect), so that is the
		// least latency of anything crossing a cut: the lookahead.
		mr := sim.NewMultiRunner(n.els, cfg.LinkDelay, n.exchange)
		mr.Inbound = n
		n.runner = mr
	} else {
		n.runner = n.els[0]
	}
}

// finishBuild ends every build: it attaches the queues and sizes the
// per-host command counters.
func (n *Network) finishBuild() {
	n.attachQueues()
	n.cmdSeq = make([]uint64, len(n.Hosts))
}

// exchange publishes every cross-shard mailbox to its destination shard and
// notes the earliest entry each shard now has waiting; the windowed runner
// calls it single-threaded at each window boundary.
func (n *Network) exchange() {
	for dst := range n.inboundAt {
		n.inboundAt[dst] = sim.Infinity
	}
	for src := range n.boxes {
		for dst := range n.boxes[src] {
			if at := n.boxes[src][dst].Publish(); at < n.inboundAt[dst] {
				n.inboundAt[dst] = at
			}
		}
	}
}

// InboundAt implements sim.Mailboxes.
func (n *Network) InboundAt(shard int) sim.Time { return n.inboundAt[shard] }

// DrainInbound implements sim.Mailboxes: shard's own goroutine moves what
// was published to it into its event list.
func (n *Network) DrainInbound(shard int) {
	for src := range n.boxes {
		n.boxes[src][shard].DrainPublished(n.inboxes[shard])
	}
}

// Defer runs h.OnEvent(arg) at absolute time at in host to's event domain,
// emitted by host from (whose identity and emission order form the
// deterministic equal-time key). It is the cross-shard command path for
// interactions that are not packets: a flow's attach and release,
// closed-loop workload restarts. A command is a value — a handler
// and a word — never a closure: h is a named pointer type over state the
// caller already owns (a pooled sender half, a connection slot), so a
// command costs no allocation on either path and nothing in it is bound to
// this process's address space beyond what a packet's Sink already is. The
// caller writes that state before Defer and must not rewrite it before at:
// the destination reads it once, at at, behind the window barrier's
// happens-before edge. Cross-shard deferrals must satisfy the conservative
// bound at >= now(from) + lookahead (one link delay) — MinPathDelay(from,
// to) always does — and one that does not panics here, at its emitter: the
// destination may already have run past at, and would otherwise find out a
// window later (CrossBox.DrainPublished), or never, on a layout where the
// two hosts share a shard. Same-shard deferrals have no bound.
func (n *Network) Defer(from, to int, at sim.Time, h sim.Handler, arg uint64) {
	n.cmdSeq[from]++
	ord := sim.CommandOrd(uint32(from), n.cmdSeq[from])
	sf, st := n.hostShard[from], n.hostShard[to]
	if sf == st {
		n.els[st].ScheduleKeyed(at, ord, h, arg)
		return
	}
	if now, l := n.els[sf].Now(), n.cfg.LinkDelay; at-now < l {
		panic(fmt.Sprintf("topo: Defer from host %d (shard %d, now %v) to host %d (shard %d) at %v is inside the lookahead %v",
			from, sf, now, to, st, at, l))
	}
	n.boxes[sf][st].AddCommand(at, ord, h, arg)
}

// CommandEvents is how many commands the hosts have emitted through Defer:
// each is one event of the run once its time comes (one emitted within the
// last path delay or think-time gap before the deadline has not fired yet).
// Emission is per source host, so the count is the same for every shard
// layout.
func (n *Network) CommandEvents() int64 {
	var cmds uint64
	for _, seq := range n.cmdSeq {
		cmds += seq
	}
	return int64(cmds)
}

// reserve sizes the slabs of a build of the given numbers of switches, hosts
// and ports (every host has one NIC port among them). A builder calls it
// once, before newSwitch, newHost and connect, with exact counts: those
// panic rather than grow a slab whose elements are already pointed to.
func (n *Network) reserve(switches, hosts, ports int) {
	n.Switches = make([]*fabric.Switch, 0, switches)
	n.switchSlab = make([]fabric.Switch, 0, switches)
	n.swShard = make([]int, 0, switches)
	n.swRand = make([]sim.Rand, switches)
	n.Hosts = make([]*fabric.Host, 0, hosts)
	n.hostSlab = make([]fabric.Host, 0, hosts)
	n.hostShard = make([]int, 0, hosts)
	n.portSlab = make([]fabric.Port, 0, ports)
	n.portLists = make([]*fabric.Port, 0, ports-hosts)
}

// groupShard is the one partition rule: group g of nGroups lands on shard
// g*shards/nGroups, so every shard owns a contiguous run of groups and the
// runs differ in size by at most one group. A group is a FatTree pod, a
// TwoTier ToR or spine, a position on a Jellyfish's ring. Partitions only
// decide which goroutine simulates a component — results are bit-identical
// for every layout — so what a rule can win is a smaller cut (less mailbox
// traffic, fewer eagerly serialized cut ports) and even load.
func groupShard(group, nGroups, shards int) int {
	return group * shards / nGroups
}

// newSwitch builds the next switch — its ID is its index in Switches — on
// shard, with room for ports egress ports. Its private ECMP stream is seeded
// here, before any shard runs: per-switch streams make destination-routed
// path choices depend only on the packet sequence through that one switch,
// so they survive sharding, where a topology-wide stream would entangle draw
// order across shards.
func (n *Network) newSwitch(label fabric.Label, shard, ports int, route fabric.RouteFunc) *fabric.Switch {
	id := len(n.Switches)
	n.switchSlab = n.switchSlab[:id+1]
	sw := &n.switchSlab[id]
	sw.Init(n.els[shard], id, label)
	sw.Route = route
	k := len(n.portLists)
	n.portLists = n.portLists[:k+ports]
	sw.Ports = n.portLists[k : k : k+ports]
	n.Switches = append(n.Switches, sw)
	n.swShard = append(n.swShard, shard)
	n.swRand[id].Init(n.cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15 ^ 0xc2b2ae3d27d4eb4f)
	if n.cfg.Lossless {
		sw.EnableLossless(n.cfg.LosslessLimit, n.cfg.PFCXoff, n.cfg.PFCXon)
	}
	return sw
}

// newHost builds the next host, "h<id>" — its ID is its index in Hosts — on
// shard.
func (n *Network) newHost(shard int) *fabric.Host {
	id := len(n.Hosts)
	n.hostSlab = n.hostSlab[:id+1]
	h := &n.hostSlab[id]
	h.Init(n.els[shard], int32(id), fabric.Label{Kind: "h", A: int32(id), B: -1})
	n.Hosts = append(n.Hosts, h)
	n.hostShard = append(n.hostShard, shard)
	return h
}

// node returns the shard and the label of a link endpoint.
func (n *Network) node(s fabric.Sink) (int, *fabric.Label) {
	switch v := s.(type) {
	case *fabric.Switch:
		return n.swShard[v.ID], &v.Label
	case *fabric.Host:
		return n.hostShard[v.ID], &v.Label
	}
	panic("topo: links join switches and hosts")
}

// connect builds the next port as the unidirectional link from node from to
// node to, each a *fabric.Switch or a *fabric.Host, and attaches it as
// from's egress (a switch) or NIC (a host). The port lives on from's shard
// and takes the next canonical UID: construction order, which is identical
// however the topology is sharded. A lossless switch receives through a PFC
// ingress queue. A link whose ends are on different shards delivers through
// the pair's mailbox, and the ingress's pause/resume signals travel back at
// the same link delay, so the reverse direction is a cut edge of its own.
// The queue comes last, from attachQueues.
func (n *Network) connect(from, to fabric.Sink) *fabric.Port {
	fs, fl := n.node(from)
	ts, tl := n.node(to)
	i := len(n.portSlab)
	n.portSlab = n.portSlab[:i+1]
	p := &n.portSlab[i]
	p.Init(n.els[fs], fl, tl, LinkRateBps, n.cfg.LinkDelay)
	p.UID = uint32(i + 1)
	var iq *fabric.IngressQueue
	if sw, ok := to.(*fabric.Switch); ok && sw.Lossless() {
		iq = sw.NewIngress(p)
	} else {
		p.Connect(to)
	}
	if fs != ts {
		p.Cross = &n.boxes[fs][ts]
		if iq != nil {
			iq.Cross = &n.boxes[ts][fs]
		}
	}
	switch v := from.(type) {
	case *fabric.Switch:
		v.AddPort(p)
	case *fabric.Host:
		v.NIC = p
	}
	return p
}

// attachQueues gives every port its queue discipline: every host NIC the
// unbounded control-priority queue of an NDP host (harmless for the other
// transports), and the switch egresses one factory call, in construction
// order. The egress seeds are hashed from the labels, without building a
// name string.
func (n *Network) attachQueues() {
	for i, q := range fabric.CtrlPrioQueues(len(n.Hosts)) {
		n.Hosts[i].NIC.Q = q
	}
	var name [64]byte
	seeds := make([]uint64, 0, len(n.portSlab)-len(n.Hosts))
	for _, sw := range n.Switches {
		for _, p := range sw.Ports {
			seeds = append(seeds, hashName(p.AppendName(name[:0])))
		}
	}
	qs := n.cfg.SwitchQueue(seeds)
	for _, sw := range n.Switches {
		for _, p := range sw.Ports {
			p.Q, qs = qs[0], qs[1:]
		}
	}
}

// hashName is FNV-1a over a queue's name: the seed QueueFactory hands its
// queue.
func hashName(name []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range name {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// SwitchStats aggregates queue counters across a set of switches.
type SwitchStats struct {
	Drops, Trims, Marks, Bounces int64
}

// CollectStats sums queue counters over every switch port in the network.
func (n *Network) CollectStats() SwitchStats {
	var s SwitchStats
	for _, sw := range n.Switches {
		for _, p := range sw.Ports {
			qs := p.Q.Stats()
			s.Drops += qs.Drops
			s.Trims += qs.Trims
			s.Marks += qs.Marks
			s.Bounces += qs.Bounces
		}
	}
	return s
}

// PacketHops sums transmitted packets over every port in the network —
// host NICs and switch egresses alike. One wire traversal counts once, so
// the total is the simulation's packet-hop volume, the workload-independent
// denominator the bench harness reports throughput against.
func (n *Network) PacketHops() int64 {
	var hops int64
	n.eachPort(func(p *fabric.Port) {
		p.Sync() // started on demand: count what has gone out by now
		hops += p.PacketsSent()
	})
	return hops
}

// eachPort visits every transmitter in the network: host NICs, then switch
// egresses.
func (n *Network) eachPort(visit func(*fabric.Port)) {
	for _, h := range n.Hosts {
		visit(h.NIC)
	}
	for _, sw := range n.Switches {
		for _, p := range sw.Ports {
			visit(p)
		}
	}
}

// SerEndEvents sums the serialization-end events fired over every port in
// the network. Ports that serialize on demand (fabric.Port) fire none, and
// which switch ports do depends on where the shard cuts fall — so this is
// the one part of the event count that differs between shard layouts.
func (n *Network) SerEndEvents() int64 {
	var ends int64
	n.eachPort(func(p *fabric.Port) { ends += p.SerEndEvents })
	return ends
}
