package topo

import (
	"fmt"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// TwoTier is a leaf/spine Clos: Tors leaf switches each serving
// HostsPerTor hosts, fully meshed to Spines spine switches. The paper's
// 8-server NetFPGA testbed is TwoTier{Tors: 4, HostsPerTor: 2, Spines: 2}
// (six 4-port switches); the sender-limited scenario of Figure 21 is a
// single leaf. A ToR's egress ports [0, HostsPerTor) go down to its hosts,
// the next NSpines up to the spines in order; spine port t goes to ToR t.
type TwoTier struct {
	Network

	NTors, HostsPerTor, NSpines int

	Tors, Spines []*fabric.Switch

	level []int // 0 tor, 1 spine
	idx   []int
}

// NewTwoTier builds a leaf/spine network. spines may be zero when tors==1.
//
// With cfg.Shards > 1 the network is partitioned by ToR group: each shard
// owns a contiguous run of ToRs with their hosts, and the spine switches
// spread across shards. Every ToR<->spine link whose endpoints land in
// different shards crosses the cut. Shards is clamped to the ToR count.
func NewTwoTier(tors, hostsPerTor, spines int, cfg Config) *TwoTier {
	if tors < 1 || hostsPerTor < 1 || (tors > 1 && spines < 1) {
		panic(fmt.Sprintf("topo: invalid TwoTier %d/%d/%d", tors, hostsPerTor, spines))
	}
	cfg = cfg.withDefaults()
	tt := &TwoTier{NTors: tors, HostsPerTor: hostsPerTor, NSpines: spines}
	shards := cfg.Shards
	if shards > tors {
		shards = tors // at most one shard per ToR group
	}
	tt.initShards(cfg, shards)
	shardOfTor := func(t int) int { return groupShard(t, tors, tt.Shards()) }

	nHosts := tors * hostsPerTor
	tt.reserve(tors+spines, nHosts, 2*nHosts+2*tors*spines)
	tt.level = make([]int, 0, tors+spines)
	tt.idx = make([]int, 0, tors+spines)
	route := fabric.RouteFunc(tt.route)
	newSwitch := func(level, idx, shard, ports int, kind string) {
		tt.newSwitch(fabric.Label{Kind: kind, A: int32(idx), B: -1}, shard, ports, route)
		tt.level = append(tt.level, level)
		tt.idx = append(tt.idx, idx)
	}
	for t := 0; t < tors; t++ {
		newSwitch(0, t, shardOfTor(t), hostsPerTor+spines, "tor")
	}
	for s := 0; s < spines; s++ {
		// Spines belong to no ToR group; spread them so the spine layer's
		// work parallelizes too.
		newSwitch(1, s, groupShard(s, spines, tt.Shards()), tors, "spine")
	}
	tt.Tors = tt.Switches[:tors:tors]
	tt.Spines = tt.Switches[tors:]
	for h := 0; h < nHosts; h++ {
		tt.newHost(shardOfTor(h / hostsPerTor))
	}

	for t, tor := range tt.Tors {
		for off := 0; off < hostsPerTor; off++ {
			host := tt.Hosts[t*hostsPerTor+off]
			tt.connect(tor, host)
			tt.connect(host, tor)
		}
		for _, spine := range tt.Spines {
			tt.connect(tor, spine)
		}
	}
	for _, spine := range tt.Spines {
		for _, tor := range tt.Tors {
			tt.connect(spine, tor)
		}
	}
	tt.finishBuild()
	return tt
}

func (tt *TwoTier) locate(h int32) (tor, off int) {
	return int(h) / tt.HostsPerTor, int(h) % tt.HostsPerTor
}

// route is the TwoTier RouteFunc: route s between racks runs through spine
// s, and a rack's one route is the ToR's port to dst. The source ToR drops
// an index past Paths' count; a destination-routed packet takes its up hop
// from the ToR's ECMP stream.
func (tt *TwoTier) route(sw *fabric.Switch, p *fabric.Packet) int {
	dtor, doff := tt.locate(p.Dst)
	if tt.level[sw.ID] == 1 { // spine
		return dtor
	}
	s := int(p.Route)
	if tt.idx[sw.ID] == dtor {
		if s > 0 && int(p.Src)/tt.HostsPerTor == dtor {
			return -1 // a rack's hosts have one route to each other
		}
		return doff
	}
	if s < 0 {
		s = tt.swRand[sw.ID].Intn(tt.NSpines)
	} else if s >= tt.NSpines {
		return -1
	}
	return tt.HostsPerTor + s
}

// Paths returns the number of source routes from src to dst: one per spine
// between racks, the one ToR hop within a rack. route resolves an index hop
// by hop, so nothing is enumerated or stored.
func (tt *TwoTier) Paths(src, dst int32) int {
	stor, _ := tt.locate(src)
	dtor, _ := tt.locate(dst)
	switch {
	case src == dst:
		return 0
	case stor == dtor:
		return 1
	}
	return tt.NSpines
}

// NumHosts returns the number of hosts.
func (tt *TwoTier) NumHosts() int { return len(tt.Hosts) }

// MinPathDelay implements Cluster: 2 links within a rack, 4 via a spine
// between racks, at the uniform per-link propagation delay.
func (tt *TwoTier) MinPathDelay(src, dst int) sim.Time {
	if src == dst {
		return 0
	}
	stor, _ := tt.locate(int32(src))
	dtor, _ := tt.locate(int32(dst))
	links := sim.Time(4)
	if stor == dtor {
		links = 2
	}
	return links * tt.cfg.LinkDelay
}

// BackToBack is two hosts wired NIC-to-NIC with no switch: the paper's
// RPC-latency and initial-window testbed configuration.
type BackToBack struct {
	Network
}

// NewBackToBack builds the two-host topology.
func NewBackToBack(cfg Config) *BackToBack {
	cfg = cfg.withDefaults()
	b := &BackToBack{}
	b.init(cfg)
	b.reserve(0, 2, 2)
	h0, h1 := b.newHost(0), b.newHost(0)
	b.connect(h0, h1)
	b.connect(h1, h0)
	b.finishBuild()
	return b
}

// Paths returns 1: the hosts are wired NIC to NIC, and the one route has no
// switch to resolve it.
func (b *BackToBack) Paths(src, dst int32) int {
	if src == dst {
		return 0
	}
	return 1
}

// NumHosts returns 2.
func (b *BackToBack) NumHosts() int { return 2 }

// MinPathDelay implements Cluster: the hosts are wired NIC-to-NIC, one
// link apart.
func (b *BackToBack) MinPathDelay(src, dst int) sim.Time {
	if src == dst {
		return 0
	}
	return b.cfg.LinkDelay
}
