package topo

import (
	"fmt"
	"slices"
	"testing"

	"ndp/internal/fabric"
)

// The ref* functions are the enumerations the topologies stored before a
// route became an index: every (src, dst) pair's routes as hop lists, in the
// order a route index counts them. FatTree and TwoTier now compute each hop
// at the switch, and Jellyfish enumerates the same sets per shard; every
// route a switch resolves is compared with these, hop for hop.

func refFatTreePaths(ft *FatTree, src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	spod, stor, _ := ft.locate(src)
	dpod, dtor, doff := ft.locate(dst)
	half := ft.K / 2
	var paths [][]int16
	switch {
	case spod == dpod && stor == dtor:
		paths = [][]int16{{int16(doff)}}
	case spod == dpod:
		for a := 0; a < half; a++ {
			paths = append(paths, []int16{int16(ft.HostsPerTor + a), int16(dtor), int16(doff)})
		}
	default:
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				paths = append(paths, []int16{int16(ft.HostsPerTor + a), int16(half + j), int16(dpod), int16(dtor), int16(doff)})
			}
		}
	}
	return paths
}

func refTwoTierPaths(tt *TwoTier, src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	stor, _ := tt.locate(src)
	dtor, doff := tt.locate(dst)
	if stor == dtor {
		return [][]int16{{int16(doff)}}
	}
	var paths [][]int16
	for s := 0; s < tt.NSpines; s++ {
		paths = append(paths, []int16{int16(tt.HostsPerTor + s), int16(dtor), int16(doff)})
	}
	return paths
}

// refBackToBackPaths is the one route between the two hosts: no switch.
func refBackToBackPaths(src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	return [][]int16{{}}
}

func refJellyfishPaths(j *Jellyfish, src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	ssw, _ := j.locate(src)
	dsw, doff := j.locate(dst)
	if ssw == dsw {
		return [][]int16{{int16(doff)}}
	}
	d := j.dist(dsw)
	var paths [][]int16
	var walk func(cur int, route []int16, sidewaysUsed bool)
	walk = func(cur int, route []int16, sidewaysUsed bool) {
		if len(paths) >= j.MaxPaths {
			return
		}
		if cur == dsw {
			paths = append(paths, append(append([]int16(nil), route...), int16(doff)))
			return
		}
		for i, nb := range j.adj[cur] {
			if d[nb] < 0 {
				continue
			}
			next := append(append([]int16(nil), route...), int16(j.HostsPerSwitch+i))
			switch {
			case d[nb] < d[cur]:
				walk(nb, next, sidewaysUsed)
			case d[nb] == d[cur] && !sidewaysUsed:
				walk(nb, next, true)
			}
		}
	}
	walk(ssw, nil, false)
	return paths
}

// walkRoute carries a packet from src toward dst on route r one switch at a
// time, through each switch's RouteFunc, appending the egress ports it takes
// to ports. It returns them and the host the packet reached, or -1 with the
// switch whose RouteFunc dropped it.
func walkRoute(c Cluster, src, dst int32, r int16, ports []int16) ([]int16, int32, *fabric.Switch) {
	h := c.HostList()[src]
	p := fabric.AttachArena(h.EventList()).NewData(1, src, dst, 0, 1500)
	defer fabric.Free(p)
	p.Route = r
	for next := h.NIC.Peer(); ; {
		switch n := next.(type) {
		case *fabric.Host:
			return ports, n.ID, nil
		case *fabric.Switch:
			out := n.Route(n, p)
			if out < 0 || out >= len(n.Ports) {
				return ports, -1, n
			}
			ports = append(ports, int16(out))
			next = n.Ports[out].Peer()
		}
	}
}

// routeWalk is what one checkRoute reached: the switches the route crossed
// and whether it was the index one past the count, dropped at its first
// switch as a RouteDrop.
type routeWalk struct {
	switches int
	dropped  bool
}

// checkRoute walks route r from src to dst: below want's count it must take
// exactly want[r]'s egress ports and end at dst; at the count, the first
// switch must drop it, counting it in RouteDrops and freeing it.
func checkRoute(t *testing.T, c Cluster, src, dst int32, r int16, want [][]int16, ports []int16) (routeWalk, []int16) {
	if n := c.Paths(src, dst); n != len(want) {
		t.Fatalf("%d->%d: Paths = %d, the reference enumerates %d", src, dst, n, len(want))
	}
	ports, at, dropper := walkRoute(c, src, dst, r, ports[:0])
	if int(r) < len(want) {
		if at != dst || !slices.Equal(ports, want[r]) {
			t.Fatalf("%d->%d route %d: ports %v to host %d, reference %v to host %d", src, dst, r, ports, at, want[r], dst)
		}
		return routeWalk{switches: len(ports)}, ports
	}
	first, isSwitch := c.HostList()[src].NIC.Peer().(*fabric.Switch)
	if !isSwitch {
		return routeWalk{}, ports // no switch to drop it: back-to-back hosts
	}
	if at >= 0 || dropper != first {
		t.Fatalf("%d->%d route %d of %d: reached host %d, dropped by %v; want a drop at %v", src, dst, r, len(want), at, dropper, first)
	}
	h := c.HostList()[src]
	arena := fabric.AttachArena(h.EventList())
	p := arena.NewData(1, src, dst, 0, 1500)
	p.Route = r
	drops, inUse := first.RouteDrops, arena.InUse()
	first.Receive(p)
	if first.RouteDrops != drops+1 || arena.InUse() != inUse-1 {
		t.Fatalf("%d->%d route %d of %d: RouteDrops %d -> %d, packets in use %d -> %d; want one drop, freed",
			src, dst, r, len(want), drops, first.RouteDrops, inUse, arena.InUse())
	}
	return routeWalk{dropped: true}, ports
}

// checkRoutes walks every route from each of srcs (nil: every host) to
// every host, and the index past each pair's count, against the reference.
func checkRoutes(t *testing.T, c Cluster, ref func(src, dst int32) [][]int16, srcs []int32) {
	t.Helper()
	hosts := int32(c.NumHosts())
	if srcs == nil {
		for h := int32(0); h < hosts; h++ {
			srcs = append(srcs, h)
		}
	}
	var ports []int16
	for _, src := range srcs {
		for dst := int32(0); dst < hosts; dst++ {
			want := ref(src, dst)
			for r := 0; r <= len(want) && src != dst; r++ {
				_, ports = checkRoute(t, c, src, dst, int16(r), want, ports)
			}
		}
	}
}

// TestComputedRoutesMatchEnumeration: a FatTree or TwoTier switch computes
// the egress of route i from its level and pod, dst and i; that must be the
// hop the stored enumeration held, on every shape — k = 2 to 12, fully
// provisioned and 4:1 oversubscribed, the testbed's leaf/spine, t-ablate's
// single leaf — for every pair and route, and the index past the count
// drops. A tree of more than 256 hosts sends from one host in every rack, a
// different offset in each: a route leaves from the source's ToR, so a
// rack's hosts take the same hops.
func TestComputedRoutesMatchEnumeration(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8, 12} {
		for _, oversub := range []int{1, 4} {
			t.Run(fmt.Sprintf("fattree-k%d-oversub%d", k, oversub), func(t *testing.T) {
				ft := NewFatTreeOversub(k, oversub, Config{Seed: 3})
				defer ft.Close()
				var srcs []int32
				if ft.NumHosts() > 256 {
					for rack := 0; rack < len(ft.Tors); rack++ {
						srcs = append(srcs, int32(rack*ft.HostsPerTor+rack%ft.HostsPerTor))
					}
				}
				checkRoutes(t, ft, func(s, d int32) [][]int16 { return refFatTreePaths(ft, s, d) }, srcs)
			})
		}
	}
	for _, shape := range [][3]int{{4, 2, 2}, {4, 6, 3}, {3, 2, 2}, {16, 4, 4}, {1, 9, 0}} {
		t.Run(fmt.Sprintf("twotier-%d-%d-%d", shape[0], shape[1], shape[2]), func(t *testing.T) {
			tt := NewTwoTier(shape[0], shape[1], shape[2], Config{Seed: 3})
			defer tt.Close()
			checkRoutes(t, tt, func(s, d int32) [][]int16 { return refTwoTierPaths(tt, s, d) }, nil)
		})
	}
	t.Run("backtoback", func(t *testing.T) {
		b := NewBackToBack(Config{})
		defer b.Close()
		checkRoutes(t, b, refBackToBackPaths, nil)
	})
}

// TestPathsMatchPerPairReference sweeps every ordered host pair of every
// topology shape, unsharded and split in two, twice over (the second sweep
// reads the Jellyfish tables the first filled), against the per-pair
// reference.
func TestPathsMatchPerPairReference(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := Config{Seed: 9, Shards: shards}
		ft4, ft8, ftOver := NewFatTree(4, cfg), NewFatTree(8, cfg), NewFatTreeOversub(4, 4, cfg)
		tt := NewTwoTier(4, 6, 3, cfg)
		jf := NewJellyfish(12, 3, 4, 8, cfg)
		cases := []struct {
			name string
			c    Cluster
			ref  func(src, dst int32) [][]int16
		}{
			{"fattree-k4", ft4, func(s, d int32) [][]int16 { return refFatTreePaths(ft4, s, d) }},
			{"fattree-k8", ft8, func(s, d int32) [][]int16 { return refFatTreePaths(ft8, s, d) }},
			{"fattree-k4-oversub4", ftOver, func(s, d int32) [][]int16 { return refFatTreePaths(ftOver, s, d) }},
			{"twotier", tt, func(s, d int32) [][]int16 { return refTwoTierPaths(tt, s, d) }},
			{"jellyfish", jf, func(s, d int32) [][]int16 { return refJellyfishPaths(jf, s, d) }},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				defer tc.c.Close()
				if tc.c.Shards() != shards {
					t.Fatalf("built with %d shards, want %d", tc.c.Shards(), shards)
				}
				for pass := 0; pass < 2; pass++ {
					checkRoutes(t, tc.c, tc.ref, nil)
				}
			})
		}
	}
}

// sameSet reports whether two route sets are one stored set: the same
// backing array, not merely equal hops.
func sameSet(a, b [][]int16) bool { return &a[0] == &b[0] }

// TestPathCacheSharing: Jellyfish's enumerated route set is shared by the
// hosts of one switch, not by hosts of different switches, and each shard
// holds its own: a packet crossing into another shard is resolved from that
// shard's table, filled there.
func TestPathCacheSharing(t *testing.T) {
	jf := NewJellyfish(12, 3, 4, 8, Config{Seed: 7})
	set := func(src, dst int32) [][]int16 {
		ssw, _ := jf.locate(src)
		return jf.routeSet(jf.hostShard[src], ssw, dst)
	}
	if !sameSet(set(0, 30), set(0, 30)) || !sameSet(set(0, 30), set(2, 30)) || sameSet(set(0, 30), set(3, 30)) {
		t.Error("Jellyfish: hosts of one switch share a set, hosts of another switch do not")
	}

	sharded := NewJellyfish(12, 3, 4, 8, Config{Seed: 7, Shards: 2})
	defer sharded.Close()
	src, dst := int32(0), int32(-1)
	for h := int32(0); h < int32(sharded.NumHosts()); h++ {
		if sharded.ShardOfHost(int(h)) != sharded.ShardOfHost(0) {
			dst = h
			break
		}
	}
	if dst < 0 {
		t.Fatal("set-up: every host in one shard")
	}
	if _, at, _ := walkRoute(sharded, src, dst, 0, nil); at != dst {
		t.Fatalf("route 0 from %d reached %d, not %d", src, at, dst)
	}
	ssw, _ := sharded.locate(src)
	a, b := sharded.ShardOfHost(int(src)), sharded.ShardOfHost(int(dst))
	own, other := sharded.routes[a].rows[ssw][dst], sharded.routes[b].rows[ssw][dst]
	if own == nil || other == nil || sameSet(own, other) {
		t.Error("the route crossed two shards: each must have enumerated the set into its own table")
	}
}

// cachedRouteSets counts the route sets a Jellyfish holds across its shards.
func cachedRouteSets(j *Jellyfish) int {
	sets := 0
	for i := range j.routes {
		for _, row := range j.routes[i].rows {
			for _, set := range row {
				if set != nil {
					sets++
				}
			}
		}
	}
	return sets
}

// TestRouteTableIsPerDestination: FatTree and TwoTier store no routes — an
// all-to-all sweep of Paths, and resolving a route at every switch it
// crosses, allocates nothing — and Jellyfish stores one route set per
// (source switch, destination).
func TestRouteTableIsPerDestination(t *testing.T) {
	sweep := func(c Cluster) func() {
		hosts := int32(c.NumHosts())
		ports := make([]int16, 0, 8)
		return func() {
			for src := int32(0); src < hosts; src++ {
				for dst := int32(0); dst < hosts; dst++ {
					if n := c.Paths(src, dst); n > 0 {
						ports, _, _ = walkRoute(c, src, dst, int16(n-1), ports[:0])
					}
				}
			}
		}
	}
	for _, c := range []Cluster{NewFatTree(8, Config{}), NewTwoTier(4, 6, 3, Config{})} {
		if allocs := testing.AllocsPerRun(2, sweep(c)); allocs != 0 {
			t.Errorf("%T: an all-to-all sweep allocated %.0f objects", c, allocs)
		}
	}

	jf := NewJellyfish(12, 3, 4, 8, Config{Seed: 7})
	sweep(jf)()
	if got, want := cachedRouteSets(jf), jf.NSwitches*jf.NumHosts(); got != want {
		t.Errorf("Jellyfish caches %d route sets after all-to-all, want switches*hosts = %d", got, want)
	}
}

// routeIn is one FuzzRoutes input, and routeSeeds its named seeds, one per
// topology kind; each must reach the case it is named for.
type routeIn struct {
	kind, k, oversub, src, dst uint8
	route                      uint16
}

var routeSeeds = map[string]struct {
	in      routeIn
	reached func(routeWalk) bool
}{
	// FatTree k=6 4:1 (12 hosts a rack): host 0 to the last, in another pod,
	// on route 8 — core 8, through all five switches.
	"fattree-inter-pod-oversub": {routeIn{0, 2, 3, 0, 215, 8}, func(w routeWalk) bool { return w.switches == 5 }},
	// t-ablate's one-switch TwoTier: the rack's one route is the ToR hop.
	"twotier-single-leaf": {routeIn{1, 0, 3, 0, 3, 0}, func(w routeWalk) bool { return w.switches == 1 }},
	// Two hosts NIC to NIC: route 0 crosses no switch.
	"backtoback": {routeIn{2, 0, 0, 0, 1, 0}, func(w routeWalk) bool { return w.switches == 0 && !w.dropped }},
	// A Jellyfish pair on route index = count: its first switch drops it.
	"jellyfish-past-count": {routeIn{3, 4, 1, 0, 9, 0xffff}, func(w routeWalk) bool { return w.dropped }},
}

// fuzzRouteCluster builds the topology a FuzzRoutes input names, with the
// reference enumeration of its routes.
func fuzzRouteCluster(in routeIn) (Cluster, func(src, dst int32) [][]int16) {
	cfg := Config{Seed: uint64(in.k) + 1}
	switch in.kind % 4 {
	case 0: // k in 2..12, oversub 1..4
		ft := NewFatTreeOversub(2*(int(in.k)%6+1), int(in.oversub)%4+1, cfg)
		return ft, func(s, d int32) [][]int16 { return refFatTreePaths(ft, s, d) }
	case 1: // 1..5 ToRs of 1..4 hosts; one ToR has no spines
		tors, spines := int(in.k)%5+1, int(in.k/5)%3+1
		if tors == 1 {
			spines = 0
		}
		tt := NewTwoTier(tors, int(in.oversub)%4+1, spines, cfg)
		return tt, func(s, d int32) [][]int16 { return refTwoTierPaths(tt, s, d) }
	case 2:
		return NewBackToBack(cfg), refBackToBackPaths
	}
	jf := NewJellyfish(int(in.k)%9+5, int(in.oversub)%3+1, 4, 0, cfg) // 5..13 switches of degree 4
	return jf, func(s, d int32) [][]int16 { return refJellyfishPaths(jf, s, d) }
}

// FuzzRoutes walks one (topology, src, dst, route) through the switches'
// RouteFuncs against the reference enumeration: a route below the count
// takes exactly the reference's ports to dst, the index at the count (any
// larger route folds onto it) drops at the first switch as a RouteDrop.
func FuzzRoutes(f *testing.F) {
	for _, name := range []string{"fattree-inter-pod-oversub", "twotier-single-leaf", "backtoback", "jellyfish-past-count"} {
		in := routeSeeds[name].in
		f.Add(in.kind, in.k, in.oversub, in.src, in.dst, in.route)
	}
	f.Fuzz(func(t *testing.T, kind, k, oversub, src, dst uint8, route uint16) {
		in := routeIn{kind, k, oversub, src, dst, route}
		c, ref := fuzzRouteCluster(in)
		defer c.Close()
		hosts := c.NumHosts()
		s, d := int32(int(src)%hosts), int32(int(dst)%hosts)
		if s == d {
			if c.Paths(s, d) != 0 {
				t.Fatalf("Paths(%d, %d) = %d, want 0", s, d, c.Paths(s, d))
			}
			return
		}
		want := ref(s, d)
		w, _ := checkRoute(t, c, s, d, int16(min(int(route), len(want))), want, nil)
		for name, seed := range routeSeeds {
			if seed.in == in && !seed.reached(w) {
				t.Errorf("seed %s did not reach its case: %+v", name, w)
			}
		}
	})
}
