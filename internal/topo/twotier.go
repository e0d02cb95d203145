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
// single leaf.
type TwoTier struct {
	Network

	NTors, HostsPerTor, NSpines int

	Tors, Spines []*fabric.Switch

	HostNIC  []*fabric.Port
	TorDown  [][]*fabric.Port // [tor][hostOff]
	TorUp    [][]*fabric.Port // [tor][spine]
	SpineDwn [][]*fabric.Port // [spine][tor]

	level []int // 0 tor, 1 spine
	idx   []int
}

// NewTwoTier builds a leaf/spine network. spines may be zero when tors==1.
//
// With cfg.Shards > 1 the network is partitioned by ToR group: each shard
// owns a contiguous run of ToRs with their hosts, and the spine switches
// spread across shards. Every ToR<->spine link whose endpoints land in
// different shards crosses the cut, so the conservative lookahead is the
// link propagation delay. Shards is clamped to the ToR count.
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

	newSwitch := func(level, idx, shard int, name string) *fabric.Switch {
		id := len(tt.Switches)
		sw := fabric.NewSwitch(tt.ShardEventList(shard), id, name)
		sw.Route = tt.route
		tt.Switches = append(tt.Switches, sw)
		tt.level = append(tt.level, level)
		tt.idx = append(tt.idx, idx)
		tt.swShard = append(tt.swShard, shard)
		tt.switchRand(id)
		if cfg.Lossless {
			sw.EnableLossless(cfg.LosslessLimit, cfg.PFCXoff, cfg.PFCXon)
		}
		return sw
	}
	for t := 0; t < tors; t++ {
		tt.Tors = append(tt.Tors, newSwitch(0, t, shardOfTor(t), fmt.Sprintf("tor%d", t)))
	}
	for s := 0; s < spines; s++ {
		// Spines belong to no ToR group; spread them so the spine layer's
		// work parallelizes too.
		tt.Spines = append(tt.Spines, newSwitch(1, s, groupShard(s, spines, tt.Shards()), fmt.Sprintf("spine%d", s)))
	}
	nHosts := tors * hostsPerTor
	for h := 0; h < nHosts; h++ {
		shard := shardOfTor(h / hostsPerTor)
		tt.Hosts = append(tt.Hosts, fabric.NewHost(tt.ShardEventList(shard), int32(h), fmt.Sprintf("h%d", h)))
		tt.hostShard = append(tt.hostShard, shard)
	}

	newPort := func(shard int, name string, q fabric.Queue) *fabric.Port {
		p := fabric.NewPort(tt.ShardEventList(shard), name, q, cfg.LinkRateBps, cfg.LinkDelay)
		p.UID = tt.allocPortUID()
		return p
	}
	wire := func(p *fabric.Port, from, to int, dst fabric.Sink) {
		iq := link(p, dst)
		if from != to {
			p.Cross = tt.noteCrossLink(from, to, p.Delay)
			if iq != nil {
				// PFC reverse channel: pause signals toward the upstream
				// transmitter cross back over the same cut.
				iq.Cross = tt.noteCrossLink(to, from, p.Delay)
			}
		}
	}

	tt.HostNIC = make([]*fabric.Port, nHosts)
	tt.TorDown = make([][]*fabric.Port, tors)
	tt.TorUp = make([][]*fabric.Port, tors)
	tt.SpineDwn = make([][]*fabric.Port, spines)

	for t, tor := range tt.Tors {
		ts := tt.swShard[tor.ID]
		tt.TorDown[t] = make([]*fabric.Port, hostsPerTor)
		for off := 0; off < hostsPerTor; off++ {
			h := int32(t*hostsPerTor + off)
			host := tt.Hosts[h]
			down := newPort(ts, portName("tor", t, int(h)), cfg.SwitchQueue(fmt.Sprintf("%s->h%d", tor.Name, h)))
			wire(down, ts, tt.hostShard[h], host)
			tor.AddPort(down)
			tt.TorDown[t][off] = down

			up := newPort(tt.hostShard[h], portName("h", int(h), t), cfg.HostQueue(fmt.Sprintf("h%d", h)))
			wire(up, tt.hostShard[h], ts, tor)
			host.NIC = up
			tt.HostNIC[h] = up
		}
		tt.TorUp[t] = make([]*fabric.Port, spines)
		for s := 0; s < spines; s++ {
			spine := tt.Spines[s]
			up := newPort(ts, portName("torUp", t, s), cfg.SwitchQueue(fmt.Sprintf("%s->%s", tor.Name, spine.Name)))
			wire(up, ts, tt.swShard[spine.ID], spine)
			tor.AddPort(up)
			tt.TorUp[t][s] = up
		}
	}
	for s, spine := range tt.Spines {
		ss := tt.swShard[spine.ID]
		tt.SpineDwn[s] = make([]*fabric.Port, tors)
		for t, tor := range tt.Tors {
			down := newPort(ss, portName("spineDown", s, t), cfg.SwitchQueue(fmt.Sprintf("%s->%s", spine.Name, tor.Name)))
			wire(down, ss, tt.swShard[tor.ID], tor)
			spine.AddPort(down)
			tt.SpineDwn[s][t] = down
		}
	}
	tt.finishShards()
	return tt
}

func (tt *TwoTier) locate(h int32) (tor, off int) {
	return int(h) / tt.HostsPerTor, int(h) % tt.HostsPerTor
}

func (tt *TwoTier) route(sw *fabric.Switch, p *fabric.Packet) int {
	if out, ok := sourceRouteHop(p); ok {
		return out
	}
	dtor, doff := tt.locate(p.Dst)
	if tt.level[sw.ID] == 1 { // spine
		return dtor
	}
	if tt.idx[sw.ID] == dtor {
		return doff
	}
	return tt.HostsPerTor + tt.swRand[sw.ID].Intn(tt.NSpines)
}

// Paths enumerates source routes: one per spine between racks, the single
// ToR hop within a rack. Routes name egress ports from the source's ToR on,
// so the set depends only on dst and on whether src shares its rack: it is
// cached under 2*dst + that relation and shared; callers must not mutate it.
func (tt *TwoTier) Paths(src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	stor, _ := tt.locate(src)
	dtor, doff := tt.locate(dst)
	key := 2 * int(dst)
	if stor != dtor {
		key++
	}
	t := &tt.routes[tt.hostShard[src]]
	row := t.row(0, 1, 2*len(tt.Hosts))
	if p := row[key]; p != nil {
		return p
	}
	var paths [][]int16
	if stor == dtor {
		paths = t.slab.alloc(1, 1)
		paths[0][0] = int16(doff)
	} else {
		paths = t.slab.alloc(tt.NSpines, 3)
		for s := 0; s < tt.NSpines; s++ {
			p := paths[s]
			p[0] = int16(tt.HostsPerTor + s)
			p[1] = int16(dtor)
			p[2] = int16(doff)
		}
	}
	row[key] = paths
	return paths
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
	h0 := fabric.NewHost(b.EL, 0, "h0")
	h1 := fabric.NewHost(b.EL, 1, "h1")
	b.Hosts = []*fabric.Host{h0, h1}
	b.hostShard = []int{0, 0}
	p0 := fabric.NewPort(b.EL, "h0->h1", cfg.HostQueue("h0"), cfg.LinkRateBps, cfg.LinkDelay)
	p1 := fabric.NewPort(b.EL, "h1->h0", cfg.HostQueue("h1"), cfg.LinkRateBps, cfg.LinkDelay)
	p0.UID = b.allocPortUID()
	p1.UID = b.allocPortUID()
	p0.Connect(h1)
	p1.Connect(h0)
	h0.NIC = p0
	h1.NIC = p1
	b.finishShards()
	return b
}

// Paths returns a single zero-hop route (there are no switches).
func (b *BackToBack) Paths(src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	return backToBackPaths
}

// backToBackPaths is the one route set of every BackToBack, shared and
// read-only like every other topology's.
var backToBackPaths = [][]int16{{}}

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
