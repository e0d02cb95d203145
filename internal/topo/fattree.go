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
//
// Egress ports, per switch: a ToR's [0, HostsPerTor) go down to its hosts in
// order and the next k/2 up to its pod's aggs; an agg's first k/2 go down to
// its pod's ToRs and the next k/2 up to cores [a*k/2, (a+1)*k/2), where a is
// its index in the pod; core port p goes down to pod p.
type FatTree struct {
	Network

	K           int
	Oversub     int
	HostsPerTor int

	Tors, Aggs, Cores []*fabric.Switch

	level []int // per switch ID: 0 tor, 1 agg, 2 core
	pod   []int // per switch ID
	idx   []int // per switch ID: position within pod (or core index)

	// hostRack and hostPod are locate's rack (global ToR index) and pod per
	// host id, tabulated so that neither route nor Paths divides.
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
// shard owning its own event list. Only agg<->core links cross the cut.
// Shards is clamped to the pod count.
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
	nTors := nPods * half // as many aggregation switches
	nCores := half * half
	nHosts := nTors * ft.HostsPerTor
	nSwitches := 2*nTors + nCores
	// A NIC and a ToR downlink per host, and k^3/4 links in each of the
	// four directions between the tiers.
	ft.reserve(nSwitches, nHosts, 2*nHosts+k*k*k)
	ft.level = make([]int, 0, nSwitches)
	ft.pod = make([]int, 0, nSwitches)
	ft.idx = make([]int, 0, nSwitches)

	// Create switches. IDs are dense across all levels for the meta arrays.
	route := fabric.RouteFunc(ft.route)
	newSwitch := func(level, pod, idx, shard, ports int, label fabric.Label) {
		ft.newSwitch(label, shard, ports, route)
		ft.level = append(ft.level, level)
		ft.pod = append(ft.pod, pod)
		ft.idx = append(ft.idx, idx)
	}
	for p := 0; p < nPods; p++ {
		for t := 0; t < half; t++ {
			newSwitch(levelTor, p, t, shardOfPod(p), ft.HostsPerTor+half, fabric.Label{Kind: "tor", A: int32(p), B: int32(t)})
		}
	}
	for p := 0; p < nPods; p++ {
		for a := 0; a < half; a++ {
			newSwitch(levelAgg, p, a, shardOfPod(p), k, fabric.Label{Kind: "agg", A: int32(p), B: int32(a)})
		}
	}
	for c := 0; c < nCores; c++ {
		// Cores belong to no pod; spread them across shards so the core
		// layer's work parallelizes too.
		newSwitch(levelCore, -1, c, groupShard(c, nCores, ft.Shards()), nPods, fabric.Label{Kind: "core", A: int32(c), B: -1})
	}
	ft.Tors = ft.Switches[:nTors:nTors]
	ft.Aggs = ft.Switches[nTors : 2*nTors : 2*nTors]
	ft.Cores = ft.Switches[2*nTors:]

	// Hosts live with their pod's shard.
	ft.hostRack = make([]int32, nHosts)
	ft.hostPod = make([]int32, nHosts)
	for h := 0; h < nHosts; h++ {
		pod, tor, _ := ft.locate(int32(h))
		ft.newHost(shardOfPod(pod))
		ft.hostRack[h] = int32(pod*half + tor)
		ft.hostPod[h] = int32(pod)
	}

	// Each port lives on its owning node's shard list; a port whose peer is
	// in another shard routes deliveries through that pair's mailbox.
	for _, tor := range ft.Tors {
		for off := 0; off < ft.HostsPerTor; off++ {
			host := ft.Hosts[ft.hostID(ft.pod[tor.ID], ft.idx[tor.ID], off)]
			ft.connect(tor, host)
			ft.connect(host, tor)
		}
	}
	for _, tor := range ft.Tors {
		p := ft.pod[tor.ID]
		for a := 0; a < half; a++ {
			ft.connect(tor, ft.Aggs[p*half+a])
		}
	}
	for _, agg := range ft.Aggs {
		p := ft.pod[agg.ID]
		for t := 0; t < half; t++ {
			ft.connect(agg, ft.Tors[p*half+t])
		}
	}
	// Agg<->core links are the only ones that can cross the pod partition.
	for _, agg := range ft.Aggs {
		a := ft.idx[agg.ID]
		for j := 0; j < half; j++ {
			ft.connect(agg, ft.Cores[a*half+j])
		}
	}
	for ci, core := range ft.Cores {
		a := ci / half // which agg position this core group serves
		for p := 0; p < nPods; p++ {
			ft.connect(core, ft.Aggs[p*half+a])
		}
	}
	ft.finishBuild()
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

// route is the FatTree RouteFunc. Every route climbs to the lowest tier
// from which dst lies below and descends the one way there is, so a switch
// picks the egress from its own place, dst and the packet's route index: the
// way down is fixed by dst, the routes differ only on the way up. Route i of
// an inter-pod pair runs through core i: up the source ToR's uplink i/(k/2)
// to that agg, and up the agg's uplink i%(k/2). Route i of an intra-pod pair
// runs through agg i, and a rack's one route is the ToR's port to dst. The
// source ToR, which every route starts at, drops an index past Paths' count.
// A destination-routed packet (the baselines that spray, bounced NDP
// headers) takes its up hops from the switch's ECMP stream.
func (ft *FatTree) route(sw *fabric.Switch, p *fabric.Packet) int {
	half := ft.K / 2
	id := sw.ID
	dpod, drack := int(ft.hostPod[p.Dst]), int(ft.hostRack[p.Dst])
	r := int(p.Route)
	switch ft.level[id] {
	case levelTor:
		if ft.pod[id]*half+ft.idx[id] == drack {
			if r > 0 && int(ft.hostRack[p.Src]) == drack {
				return -1 // a rack's hosts have one route to each other
			}
			return int(p.Dst) - drack*ft.HostsPerTor
		}
		switch {
		case r < 0:
			r = ft.pickUp(sw, half)
		case ft.pod[id] == dpod:
			if r >= half {
				return -1
			}
		default:
			if r >= half*half {
				return -1
			}
			r /= half
		}
		return ft.HostsPerTor + r
	case levelAgg:
		if ft.pod[id] == dpod {
			return drack - dpod*half
		}
		if r < 0 {
			r = ft.pickUp(sw, half)
		} else {
			r %= half
		}
		return half + r
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

// Paths returns the number of source routes from src to dst: one per core
// switch between pods ((k/2)^2), one per aggregation switch within a pod
// (k/2), and the one ToR hop within a rack. route resolves an index hop by
// hop, so nothing is enumerated or stored.
func (ft *FatTree) Paths(src, dst int32) int {
	half := ft.K / 2
	switch {
	case src == dst:
		return 0
	case ft.hostRack[src] == ft.hostRack[dst]:
		return 1
	case ft.hostPod[src] == ft.hostPod[dst]:
		return half
	}
	return half * half
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
	half := ft.K / 2
	agg := ft.Aggs[aggIdx]
	agg.Ports[half+coreOff].RateBps = newRate
	ft.Cores[ft.idx[agg.ID]*half+coreOff].Ports[ft.pod[agg.ID]].RateBps = newRate
}

// UplinkTrims sums payload trims on ToR->Agg and Agg->Core ports (the
// "uplink trimming" statistic of §3.2.4's congestion-collapse discussion).
func (ft *FatTree) UplinkTrims() int64 {
	var n int64
	for _, tor := range ft.Tors {
		for _, p := range tor.Ports[ft.HostsPerTor:] {
			n += p.Q.Stats().Trims
		}
	}
	for _, agg := range ft.Aggs {
		for _, p := range agg.Ports[ft.K/2:] {
			n += p.Q.Stats().Trims
		}
	}
	return n
}
