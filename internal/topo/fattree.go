package topo

import (
	"fmt"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// FatTree is a k-ary three-tier folded-Clos network (Al-Fares et al.).
// With Oversub == 1 it is the fully-provisioned FatTree of the paper's
// evaluation: k pods, each with k/2 ToR and k/2 aggregation switches,
// (k/2)^2 core switches, and k/2 hosts per ToR, giving k^3/4 hosts.
//
// With Oversub == f each ToR serves f*k/2 hosts over the same k/2 uplinks,
// the 4:1 oversubscribed configuration of the Facebook-workload experiment
// (§6.3).
type FatTree struct {
	Network

	K           int
	Oversub     int
	HostsPerTor int

	Tors, Aggs, Cores []*fabric.Switch

	// Port maps for fault injection and telemetry.
	HostNIC  []*fabric.Port   // [host] host->ToR uplink
	TorDown  [][]*fabric.Port // [tor][hostOff]
	TorUp    [][]*fabric.Port // [tor][agg]
	AggDown  [][]*fabric.Port // [agg][tor]
	AggUp    [][]*fabric.Port // [agg][coreOff]
	CoreDown [][]*fabric.Port // [core][pod]

	level []int // per switch ID: 0 tor, 1 agg, 2 core
	pod   []int // per switch ID
	idx   []int // per switch ID: position within pod (or core index)

	// hostRack and hostPod are locate's rack (global ToR index) and pod per
	// host id, tabulated so the warm Paths lookup does no division.
	hostRack, hostPod []int32
}

const (
	levelTor = iota
	levelAgg
	levelCore
)

// NewFatTree builds a fully-provisioned k-ary FatTree.
func NewFatTree(k int, cfg Config) *FatTree { return NewFatTreeOversub(k, 1, cfg) }

// NewFatTreeOversub builds a k-ary FatTree whose ToRs serve oversub times
// more hosts than a fully-provisioned tree. k must be even, oversub >= 1.
//
// With cfg.Shards > 1 the tree is partitioned by pod (pods are contiguous
// runs of hosts, ToRs and aggs; core switches spread round-robin), each
// shard owning its own event list. Only agg<->core links cross the cut, so
// the conservative lookahead is the link propagation delay. Shards is
// clamped to the pod count.
func NewFatTreeOversub(k, oversub int, cfg Config) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: FatTree k must be even and >= 2, got %d", k))
	}
	if oversub < 1 {
		panic("topo: oversub must be >= 1")
	}
	cfg = cfg.withDefaults()
	ft := &FatTree{K: k, Oversub: oversub, HostsPerTor: oversub * k / 2}
	shards := cfg.Shards
	if shards > k {
		shards = k // at most one shard per pod
	}
	ft.initShards(cfg, shards)
	shardOfPod := func(pod int) int { return groupShard(pod, k, ft.Shards()) }

	half := k / 2
	nPods := k
	nTorsPerPod := half
	nAggsPerPod := half
	nCores := half * half
	nHosts := nPods * nTorsPerPod * ft.HostsPerTor

	// Create switches. IDs are dense across all levels for the meta arrays.
	// Every switch gets its private ECMP stream up front (mid-run creation
	// would race across shard goroutines).
	newSwitch := func(level, pod, idx, shard int, name string) *fabric.Switch {
		id := len(ft.Switches)
		sw := fabric.NewSwitch(ft.ShardEventList(shard), id, name)
		sw.Route = ft.route
		ft.Switches = append(ft.Switches, sw)
		ft.level = append(ft.level, level)
		ft.pod = append(ft.pod, pod)
		ft.idx = append(ft.idx, idx)
		ft.swShard = append(ft.swShard, shard)
		ft.switchRand(id)
		if cfg.Lossless {
			sw.EnableLossless(cfg.LosslessLimit, cfg.PFCXoff, cfg.PFCXon)
		}
		return sw
	}
	for p := 0; p < nPods; p++ {
		for t := 0; t < nTorsPerPod; t++ {
			ft.Tors = append(ft.Tors, newSwitch(levelTor, p, t, shardOfPod(p), fmt.Sprintf("tor%d.%d", p, t)))
		}
	}
	for p := 0; p < nPods; p++ {
		for a := 0; a < nAggsPerPod; a++ {
			ft.Aggs = append(ft.Aggs, newSwitch(levelAgg, p, a, shardOfPod(p), fmt.Sprintf("agg%d.%d", p, a)))
		}
	}
	for c := 0; c < nCores; c++ {
		// Cores belong to no pod; spread them across shards so the core
		// layer's work parallelizes too.
		ft.Cores = append(ft.Cores, newSwitch(levelCore, -1, c, groupShard(c, nCores, ft.Shards()), fmt.Sprintf("core%d", c)))
	}

	// Hosts live with their pod's shard.
	for h := 0; h < nHosts; h++ {
		pod, tor, _ := ft.locate(int32(h))
		shard := shardOfPod(pod)
		ft.hostShard = append(ft.hostShard, shard)
		ft.hostRack = append(ft.hostRack, int32(pod*half+tor))
		ft.hostPod = append(ft.hostPod, int32(pod))
		host := fabric.NewHost(ft.ShardEventList(shard), int32(h), fmt.Sprintf("h%d", h))
		ft.Hosts = append(ft.Hosts, host)
	}

	ft.TorDown = make([][]*fabric.Port, len(ft.Tors))
	ft.TorUp = make([][]*fabric.Port, len(ft.Tors))
	ft.AggDown = make([][]*fabric.Port, len(ft.Aggs))
	ft.AggUp = make([][]*fabric.Port, len(ft.Aggs))
	ft.CoreDown = make([][]*fabric.Port, len(ft.Cores))
	ft.HostNIC = make([]*fabric.Port, nHosts)

	// Each port lives on its owning node's shard list; a port whose peer is
	// in another shard routes deliveries through that pair's mailbox.
	newPort := func(shard int, name string, q fabric.Queue) *fabric.Port {
		p := fabric.NewPort(ft.ShardEventList(shard), name, q, cfg.LinkRateBps, cfg.LinkDelay)
		p.UID = ft.allocPortUID()
		return p
	}
	wire := func(p *fabric.Port, from, to int, dst fabric.Sink) {
		iq := link(p, dst)
		if from != to {
			p.Cross = ft.noteCrossLink(from, to, p.Delay)
			if iq != nil {
				// The PFC reverse channel: pause/resume signals travel
				// from the lossless switch (shard to) back to the upstream
				// transmitter (shard from) at the same link delay, so the
				// reverse direction is a cut edge of its own.
				iq.Cross = ft.noteCrossLink(to, from, p.Delay)
			}
		}
	}

	// Wire hosts <-> ToRs. ToR egress ports [0, HostsPerTor) go down.
	for ti, tor := range ft.Tors {
		ts := ft.swShard[tor.ID]
		ft.TorDown[ti] = make([]*fabric.Port, ft.HostsPerTor)
		for off := 0; off < ft.HostsPerTor; off++ {
			h := ft.hostID(ft.pod[tor.ID], ft.idx[tor.ID], off)
			host := ft.Hosts[h]
			down := newPort(ts, portName("tor", ti, int(h)), cfg.SwitchQueue(fmt.Sprintf("%s->h%d", tor.Name, h)))
			wire(down, ts, ft.hostShard[h], host)
			tor.AddPort(down)
			ft.TorDown[ti][off] = down

			up := newPort(ft.hostShard[h], portName("h", int(h), ti), cfg.HostQueue(fmt.Sprintf("h%d", h)))
			wire(up, ft.hostShard[h], ts, tor)
			host.NIC = up
			ft.HostNIC[h] = up
		}
	}
	// Wire ToRs <-> Aggs. ToR egress ports [HostsPerTor, HostsPerTor+half).
	// Agg egress ports [0, half) go down to ToRs.
	for ti, tor := range ft.Tors {
		p := ft.pod[tor.ID]
		ts := ft.swShard[tor.ID]
		ft.TorUp[ti] = make([]*fabric.Port, half)
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p*half+a]
			up := newPort(ts, portName("torUp", ti, a), cfg.SwitchQueue(fmt.Sprintf("%s->%s", tor.Name, agg.Name)))
			wire(up, ts, ft.swShard[agg.ID], agg)
			tor.AddPort(up)
			ft.TorUp[ti][a] = up
		}
	}
	for ai, agg := range ft.Aggs {
		p := ft.pod[agg.ID]
		as := ft.swShard[agg.ID]
		ft.AggDown[ai] = make([]*fabric.Port, half)
		for t := 0; t < half; t++ {
			tor := ft.Tors[p*half+t]
			down := newPort(as, portName("aggDown", ai, t), cfg.SwitchQueue(fmt.Sprintf("%s->%s", agg.Name, tor.Name)))
			wire(down, as, ft.swShard[tor.ID], tor)
			agg.AddPort(down)
			ft.AggDown[ai][t] = down
		}
	}
	// Wire Aggs <-> Cores. Agg a connects to cores [a*half, (a+1)*half).
	// Agg egress ports [half, k) go up; core egress port p goes to pod p.
	// These are the only links that can cross the pod partition.
	for ai, agg := range ft.Aggs {
		a := ft.idx[agg.ID]
		as := ft.swShard[agg.ID]
		ft.AggUp[ai] = make([]*fabric.Port, half)
		for j := 0; j < half; j++ {
			core := ft.Cores[a*half+j]
			up := newPort(as, portName("aggUp", ai, j), cfg.SwitchQueue(fmt.Sprintf("%s->%s", agg.Name, core.Name)))
			wire(up, as, ft.swShard[core.ID], core)
			agg.AddPort(up)
			ft.AggUp[ai][j] = up
		}
	}
	for ci, core := range ft.Cores {
		a := ci / half // which agg position this core group serves
		cs := ft.swShard[core.ID]
		ft.CoreDown[ci] = make([]*fabric.Port, nPods)
		for p := 0; p < nPods; p++ {
			agg := ft.Aggs[p*half+a]
			down := newPort(cs, portName("coreDown", ci, p), cfg.SwitchQueue(fmt.Sprintf("%s->%s", core.Name, agg.Name)))
			wire(down, cs, ft.swShard[agg.ID], agg)
			core.AddPort(down)
			ft.CoreDown[ci][p] = down
		}
	}
	ft.finishShards()
	return ft
}

// hostID maps (pod, torInPod, offset) to a host id.
func (ft *FatTree) hostID(pod, tor, off int) int32 {
	half := ft.K / 2
	return int32((pod*half+tor)*ft.HostsPerTor + off)
}

// locate maps a host id to (pod, torInPod, offset).
func (ft *FatTree) locate(h int32) (pod, tor, off int) {
	half := ft.K / 2
	off = int(h) % ft.HostsPerTor
	t := int(h) / ft.HostsPerTor
	return t / half, t % half, off
}

// route is the FatTree RouteFunc: source routes are followed verbatim;
// destination-routed packets (baselines and bounced NDP headers) use
// up/down routing with ECMP on the up segments.
func (ft *FatTree) route(sw *fabric.Switch, p *fabric.Packet) int {
	if out, ok := sourceRouteHop(p); ok {
		return out
	}
	half := ft.K / 2
	dpod, dtor, doff := ft.locate(p.Dst)
	switch ft.level[sw.ID] {
	case levelTor:
		if ft.pod[sw.ID] == dpod && ft.idx[sw.ID] == dtor {
			return doff
		}
		return ft.HostsPerTor + ft.pickUp(sw, half)
	case levelAgg:
		if ft.pod[sw.ID] == dpod {
			return dtor
		}
		return half + ft.pickUp(sw, half)
	default: // core
		return dpod
	}
}

// pickUp sprays a destination-routed packet over sw's n uplinks.
func (ft *FatTree) pickUp(sw *fabric.Switch, n int) int {
	// Per-switch stream: draw order is the packet sequence through this
	// one switch, which is shard-local and shard-count-independent.
	return ft.swRand[sw.ID].Intn(n)
}

// Paths enumerates the source routes from src to dst: one route per core
// switch for inter-pod pairs ((k/2)^2 routes), one per aggregation switch
// within a pod (k/2 routes), and the single ToR hop within a rack. A route
// starts at the source's ToR and names egress ports only, so it depends on
// dst and on whether src shares dst's rack or pod, not on src: the result is
// cached under 3*dst + that relation and shared by every such source;
// callers must not mutate the slices.
func (ft *FatTree) Paths(src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	rel := 2 // other pod
	switch {
	case ft.hostRack[src] == ft.hostRack[dst]:
		rel = 0
	case ft.hostPod[src] == ft.hostPod[dst]:
		rel = 1
	}
	t := &ft.routes[ft.hostShard[src]]
	row := t.row(0, 1, 3*len(ft.Hosts))
	key := 3*int(dst) + rel
	if p := row[key]; p != nil {
		return p
	}
	dpod, dtor, doff := ft.locate(dst)
	half := ft.K / 2
	var paths [][]int16
	switch rel {
	case 0:
		paths = t.slab.alloc(1, 1)
		paths[0][0] = int16(doff)
	case 1:
		paths = t.slab.alloc(half, 3)
		for a := 0; a < half; a++ {
			p := paths[a]
			p[0] = int16(ft.HostsPerTor + a) // ToR up to agg a
			p[1] = int16(dtor)               // agg down to dst ToR
			p[2] = int16(doff)               // ToR down to host
		}
	default:
		paths = t.slab.alloc(half*half, 5)
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				p := paths[a*half+j]
				p[0] = int16(ft.HostsPerTor + a) // ToR up to agg a
				p[1] = int16(half + j)           // agg up to its j-th core
				p[2] = int16(dpod)               // core down to dst pod
				p[3] = int16(dtor)               // agg down to dst ToR
				p[4] = int16(doff)               // ToR down to host
			}
		}
	}
	row[key] = paths
	return paths
}

// NumHosts returns the number of hosts in the tree.
func (ft *FatTree) NumHosts() int { return len(ft.Hosts) }

// MinPathDelay implements Cluster: the shortest src->dst route is 2 links
// within a rack, 4 via an aggregation switch within a pod, 6 via the core
// between pods, all at the uniform per-link propagation delay (DegradeLink
// only changes rates, never delays).
func (ft *FatTree) MinPathDelay(src, dst int) sim.Time {
	if src == dst {
		return 0
	}
	spod, stor, _ := ft.locate(int32(src))
	dpod, dtor, _ := ft.locate(int32(dst))
	links := sim.Time(6)
	switch {
	case spod == dpod && stor == dtor:
		links = 2
	case spod == dpod:
		links = 4
	}
	return links * ft.cfg.LinkDelay
}

// DegradeLink reduces the line rate of the bidirectional link between agg
// switch aggIdx (global index) and its coreOff-th core to newRate — the
// failure scenario of Figure 22. It is called at set-up, before any packet
// moves. A caller that degrades a link mid-run must call Sync on both ports
// first: a switch port serializes on demand (fabric.Port), and the packets
// whose turn came before the change have to be started at the old rate.
func (ft *FatTree) DegradeLink(aggIdx, coreOff int, newRate int64) {
	up := ft.AggUp[aggIdx][coreOff]
	up.RateBps = newRate
	a := ft.idx[ft.Aggs[aggIdx].ID]
	pod := ft.pod[ft.Aggs[aggIdx].ID]
	core := a*(ft.K/2) + coreOff
	ft.CoreDown[core][pod].RateBps = newRate
}

// UplinkTrims sums payload trims on ToR->Agg and Agg->Core ports (the
// "uplink trimming" statistic of §3.2.4's congestion-collapse discussion).
func (ft *FatTree) UplinkTrims() int64 {
	var n int64
	for _, ports := range ft.TorUp {
		for _, p := range ports {
			n += p.Q.Stats().Trims
		}
	}
	for _, ports := range ft.AggUp {
		for _, p := range ports {
			n += p.Q.Stats().Trims
		}
	}
	return n
}

// TotalTrims sums payload trims across every switch port.
func (ft *FatTree) TotalTrims() int64 {
	var n int64
	for _, sw := range ft.Switches {
		for _, p := range sw.Ports {
			n += p.Q.Stats().Trims
		}
	}
	return n
}
