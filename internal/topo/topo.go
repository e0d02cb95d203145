// Package topo builds the Clos topologies the paper evaluates on: k-ary
// 3-tier FatTrees (optionally oversubscribed), 2-tier leaf/spine networks,
// and degenerate test topologies (back-to-back hosts, single switch). It
// also provides path enumeration for source routing and destination-based
// ECMP routing (per-packet random or per-flow hashed) for the baselines and
// for NDP's return-to-sender headers.
package topo

import (
	"fmt"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// QueueFactory builds a queue discipline for a named port. Experiments pick
// the discipline per protocol: NDP switch queues, ECN queues for DCTCP,
// plain drop-tail for TCP.
type QueueFactory func(name string) fabric.Queue

// Config carries the physical parameters shared by all topology builders.
type Config struct {
	// LinkRateBps is the line rate of every link (default 10Gb/s).
	LinkRateBps int64
	// LinkDelay is the one-way propagation delay per link (default 500ns).
	LinkDelay sim.Time
	// SwitchQueue builds each switch egress queue (default: drop-tail FIFO
	// of 8 jumbograms).
	SwitchQueue QueueFactory
	// HostQueue builds each host NIC queue (default: unbounded control-
	// priority queue, the NDP host discipline; harmless for others).
	HostQueue QueueFactory
	// Lossless enables PFC at every switch.
	Lossless bool
	// LosslessLimit, PFCXoff, PFCXon configure PFC byte budgets; zero
	// values take defaults sized in MTUs.
	LosslessLimit, PFCXoff, PFCXon int
	// Seed seeds the topology's private RNG (per-packet ECMP choices).
	Seed uint64
	// Shards partitions the topology into this many per-core shards, each
	// with its own event list, advanced in conservative windows
	// (sim.MultiRunner) bounded by a per-shard-pair lookahead matrix (the
	// minimum total path delay across the cut edges between each pair).
	// 0 or 1 keeps the proven single-list engine. Results are
	// bit-identical for every value. FatTree partitions by pod (the cut
	// runs through the agg<->core layer), TwoTier by ToR group (spines
	// spread across shards), Jellyfish by BFS-grown balanced switch
	// regions (greedy edge-cut). BackToBack supports only 1. Lossless
	// (PFC) fabrics shard too: pause/resume transitions crossing a cut
	// travel as keyed cross-shard entries over the reverse channel, whose
	// link delay is part of the lookahead matrix.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.LinkRateBps == 0 {
		c.LinkRateBps = 10e9
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 500 * sim.Nanosecond
	}
	if c.SwitchQueue == nil {
		c.SwitchQueue = func(string) fabric.Queue { return fabric.NewFIFOQueue(8 * 9000) }
	}
	if c.HostQueue == nil {
		c.HostQueue = func(string) fabric.Queue { return fabric.NewCtrlPrioQueue() }
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
// scheduler (single-list or sharded), the hosts, source-route enumeration
// and telemetry. All concrete topologies (*FatTree, *TwoTier, *BackToBack)
// implement it.
type Cluster interface {
	EventList() *sim.EventList
	Runner() sim.Runner
	Shards() int
	ShardOfHost(h int) int
	Defer(from, to int, at sim.Time, h sim.Handler, arg uint64)
	LinkDelay() sim.Time
	// MinPathDelay returns the minimum total propagation delay of any
	// physical path from host src to host dst — the earliest a causal
	// effect of an event at src can reach dst. Cross-shard deferred
	// commands (Defer) and receiver registrations use it as their delivery
	// offset: it is at least the pair lookahead L[shard(src)][shard(dst)]
	// (every src->dst path crosses the same cuts the matrix is built
	// from), yet depends only on the topology, never on the shard layout —
	// which keeps N-shard runs bit-identical to 1-shard runs.
	MinPathDelay(src, dst int) sim.Time
	HostList() []*fabric.Host
	SwitchList() []*fabric.Switch
	Paths(src, dst int32) [][]int16
	NumHosts() int
	LinkRate() int64
	CollectStats() SwitchStats
	PacketHops() int64
	SerEndEvents() int64
	CommandEvents() int64
	// PacketsInUse sums the outstanding packets of every shard arena: the
	// leak counter the golden suite asserts returns to zero after Close.
	PacketsInUse() int64
	// Close releases engine resources (the sharded runner's persistent
	// shard workers) and frees every packet the fabric still holds, so the
	// arena leak counters settle. Idempotent.
	Close()
}

// Network is the common state every topology exposes: the per-shard event
// lists and their runner, the hosts and switches, and the cached source
// routes.
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
	lookahead sim.Time
	// pairLookahead is the all-pairs matrix L that finishShards closes
	// crossDelay into: handed to the runner, and checked by Defer.
	pairLookahead [][]sim.Time
	// crossDelay[src][dst] is the minimum delay of any single cut edge
	// from shard src to shard dst reported via noteCrossLink (Infinity
	// when none).
	crossDelay [][]sim.Time
	hostShard  []int
	swShard    []int
	released   bool        // Close already freed the fabric's held packets
	swRand     []*sim.Rand // per-switch ECMP stream, index = switch ID
	portUID    uint32
	cmdSeq     []uint64 // per-host command emission counters (Defer ord)
	// routes[shard] caches the enumerated source routes of the hosts that
	// shard owns. A table is only ever written by its own shard's goroutine
	// (enumeration happens mid-run: control-packet routing, flow starts), so
	// concurrent shards never share mutable state; the cached route sets
	// themselves are identical read-only values in every shard.
	routes []routeTable
}

// routeTable is one shard's route cache: a dense two-level array of route
// sets indexed by a small integer key the topology computes from (src, dst).
// A topology's route set depends on the destination and on where the source
// sits relative to it, not on the source itself, so the key space is
// O(destinations): FatTree keeps one row of 3*hosts sets (same rack, same
// pod, other pod), TwoTier one row of 2*hosts, Jellyfish one row of hosts
// sets per source switch. Every source in the same relation to dst gets the
// same read-only set. Rows are allocated on first use and filled lazily; a
// nil set has not been enumerated yet.
type routeTable struct {
	rows [][][][]int16
	// slab backs the cached routes: hop arrays and route headers are carved
	// from large shared chunks, so a cold entry costs amortized-zero
	// allocations instead of one per route.
	slab pathSlab
}

// row returns row r of the table — cols route sets — allocating the row
// index (rows entries) and the row itself on first use.
func (t *routeTable) row(r, rows, cols int) [][][]int16 {
	if t.rows == nil {
		t.rows = make([][][][]int16, rows)
	}
	if t.rows[r] == nil {
		t.rows[r] = make([][][]int16, cols)
	}
	return t.rows[r]
}

// pathSlab carves route storage out of chunked arrays. Entries are written
// once when a route set is first enumerated and are immutable after
// publication in the route table; a chunk's unused tail is abandoned (not
// reused) when a request does not fit, so published slices never alias new
// ones.
type pathSlab struct {
	hops []int16
	hdrs [][]int16
}

// alloc returns n route headers of hopLen hops each, zeroed, as one
// contiguous capacity-clamped slice. The caller fills in the hops.
func (s *pathSlab) alloc(n, hopLen int) [][]int16 {
	need := n * hopLen
	if cap(s.hops)-len(s.hops) < need {
		c := 4096
		if c < need {
			c = need
		}
		s.hops = make([]int16, 0, c)
	}
	if cap(s.hdrs)-len(s.hdrs) < n {
		c := 512
		if c < n {
			c = n
		}
		s.hdrs = make([][]int16, 0, c)
	}
	base := len(s.hdrs)
	for i := 0; i < n; i++ {
		h := len(s.hops)
		s.hops = s.hops[:h+hopLen]
		s.hdrs = append(s.hdrs, s.hops[h:h+hopLen:h+hopLen])
	}
	return s.hdrs[base : base+n : base+n]
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

// Lookahead returns the conservative window bound: the minimum latency of
// any cross-shard interaction (Infinity when nothing crosses).
func (n *Network) Lookahead() sim.Time { return n.lookahead }

// HostList returns the hosts in id order.
func (n *Network) HostList() []*fabric.Host { return n.Hosts }

// SwitchList returns all switches.
func (n *Network) SwitchList() []*fabric.Switch { return n.Switches }

// LinkRate returns the line rate in bits per second.
func (n *Network) LinkRate() int64 { return n.cfg.LinkRateBps }

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
// something truly leaked. Idempotent.
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
}

// PacketsInUse implements Cluster: outstanding packets across shard arenas,
// plus those in flight between two of them in a cross-shard mailbox.
func (n *Network) PacketsInUse() int64 {
	var total int64
	for _, el := range n.els {
		if a, ok := el.Allocator().(*fabric.Arena); ok {
			total += a.InUse()
		}
	}
	for i := range n.boxes {
		for j := range n.boxes[i] {
			total += n.boxes[i][j].Packets()
		}
	}
	return total
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
		n.els[i] = sim.NewEventList()
		// Every shard owns one packet arena; components scheduled on this
		// list allocate from it and free into it.
		fabric.AttachArena(n.els[i])
	}
	n.EL = n.els[0]
	n.Rand = sim.NewRand(cfg.Seed ^ 0x9e3779b97f4a7c15)
	n.routes = make([]routeTable, shards)
	n.lookahead = sim.Infinity
	if shards > 1 {
		n.boxes = make([][]fabric.CrossBox, shards)
		n.inboxes = make([]*fabric.Inbox, shards)
		n.inboundAt = make([]sim.Time, shards)
		n.crossDelay = make([][]sim.Time, shards)
		for i := range n.boxes {
			n.boxes[i] = make([]fabric.CrossBox, shards)
			n.inboxes[i] = fabric.NewInbox(n.els[i])
			n.crossDelay[i] = make([]sim.Time, shards)
			for j := range n.crossDelay[i] {
				if i != j {
					n.crossDelay[i][j] = sim.Infinity
				}
			}
		}
		mr := sim.NewMultiRunner(n.els, cfg.LinkDelay, n.exchange)
		mr.Inbound = n
		n.runner = mr
	} else {
		n.runner = n.els[0]
	}
}

// finishShards computes the runner's lookahead once the builder has
// reported every cross-shard link via noteCrossLink: the scalar minimum
// (the classic window bound, still the Lookahead() summary) and the
// per-shard-pair matrix L[i][j] — the minimum total path delay across the
// actual cut edges from shard i to shard j, the metric closure of the
// per-pair single-edge minima under Floyd-Warshall. Non-adjacent shard
// pairs get multi-hop sums (wider windows than the scalar), pairs no path
// connects stay at Infinity (no constraint at all).
func (n *Network) finishShards() {
	n.cmdSeq = make([]uint64, len(n.Hosts))
	mr, ok := n.runner.(*sim.MultiRunner)
	if !ok {
		return
	}
	if n.lookahead == sim.Infinity {
		// No link crosses the partition: windows can be arbitrarily
		// wide, but link delay is a safe, simple bound.
		n.lookahead = n.cfg.LinkDelay
	}
	mr.Lookahead = n.lookahead
	shards := len(n.els)
	L := make([][]sim.Time, shards)
	for i := range L {
		L[i] = append([]sim.Time(nil), n.crossDelay[i]...)
	}
	for k := 0; k < shards; k++ {
		for i := 0; i < shards; i++ {
			if i == k {
				continue
			}
			for j := 0; j < shards; j++ {
				if j == i || j == k {
					continue
				}
				if via := sim.SatAdd(L[i][k], L[k][j]); via < L[i][j] {
					L[i][j] = via
				}
			}
		}
	}
	n.pairLookahead = L
	mr.SetLookaheadMatrix(L)
}

// noteCrossLink registers a shard-crossing link's latency for the
// lookahead computation and returns the mailbox its traffic must use.
func (n *Network) noteCrossLink(from, to int, delay sim.Time) *fabric.CrossBox {
	if delay < n.lookahead {
		n.lookahead = delay
	}
	if delay < n.crossDelay[from][to] {
		n.crossDelay[from][to] = delay
	}
	return &n.boxes[from][to]
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
// interactions that are not packets: receiver-side flow registration and
// teardown, closed-loop workload restarts. A command is a value — a handler
// and a word — never a closure: h is a named pointer type over state the
// caller already owns (a pooled sender half, a connection slot), so a
// command costs no allocation on either path and nothing in it is bound to
// this process's address space beyond what a packet's Sink already is. The
// caller writes that state before Defer and must not rewrite it before at:
// the destination reads it once, at at, behind the window barrier's
// happens-before edge. Cross-shard deferrals must satisfy the conservative
// bound at >= now(from) + L[shard(from)][shard(to)] — MinPathDelay(from,
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
	if now, l := n.els[sf].Now(), n.pairLookahead[sf][st]; at-now < l {
		panic(fmt.Sprintf("topo: Defer from host %d (shard %d, now %v) to host %d (shard %d) at %v is inside the pair lookahead %v",
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

// allocPortUID hands out canonical port identities in construction order.
func (n *Network) allocPortUID() uint32 {
	n.portUID++
	return n.portUID
}

// switchRand returns switch id's private ECMP stream, creating per-switch
// generators on first use. Per-switch streams make destination-routed path
// choices depend only on the packet sequence through that one switch, so
// they survive sharding; a topology-wide stream would entangle draw order
// across shards.
func (n *Network) switchRand(id int) *sim.Rand {
	for len(n.swRand) <= id {
		n.swRand = append(n.swRand,
			sim.NewRand(n.cfg.Seed^(uint64(len(n.swRand))+1)*0x9e3779b97f4a7c15^0xc2b2ae3d27d4eb4f))
	}
	return n.swRand[id]
}

// sourceRouteHop consumes one hop of a packet's source route, or returns
// false if the packet is destination-routed.
func sourceRouteHop(p *fabric.Packet) (int, bool) {
	if p.Path == nil {
		return 0, false
	}
	if int(p.Hop) >= len(p.Path) {
		return -1, true // malformed: off the end of the route
	}
	out := int(p.Path[p.Hop])
	p.Hop++
	return out, true
}

// link wires a unidirectional link from the given port to a destination
// node, inserting a PFC ingress queue when dst is a lossless switch (and
// returning it, so shard-aware callers can wire the ingress's reverse
// pause channel when the link crosses a shard cut).
func link(from *fabric.Port, dst fabric.Sink) *fabric.IngressQueue {
	if sw, ok := dst.(*fabric.Switch); ok && sw.Lossless() {
		return sw.NewIngress(from)
	}
	from.Connect(dst)
	return nil
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
		hops += p.PacketsSent
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

// portName builds a stable debug name for a link endpoint.
func portName(kind string, a, b int) string { return fmt.Sprintf("%s%d->%d", kind, a, b) }
