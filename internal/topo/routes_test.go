package topo

import (
	"fmt"
	"slices"
	"testing"
)

// The ref* functions are the per-(src, dst) enumerations Paths used before
// routes were cached by destination and relation: every pair enumerated on
// its own, nothing shared. They are the reference the dense route tables
// are compared with, hop for hop.

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

// comparePaths checks got against want route by route, hop by hop.
func comparePaths(t *testing.T, src, dst int32, got, want [][]int16) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d->%d: %d routes, reference has %d", src, dst, len(got), len(want))
	}
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("%d->%d route %d: %v, reference %v", src, dst, r, got[r], want[r])
		}
	}
}

// TestPathsMatchPerPairReference sweeps every ordered host pair of every
// topology shape, unsharded and split in two, twice over (the second sweep
// reads the filled tables), against the per-pair reference.
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
				hosts := int32(tc.c.NumHosts())
				for pass := 0; pass < 2; pass++ {
					for src := int32(0); src < hosts; src++ {
						for dst := int32(0); dst < hosts; dst++ {
							comparePaths(t, src, dst, tc.c.Paths(src, dst), tc.ref(src, dst))
						}
					}
				}
			})
		}
	}
}

// sameSet reports whether two Paths results are one cached route set: the
// same backing array, not merely equal hops.
func sameSet(a, b [][]int16) bool { return &a[0] == &b[0] }

// TestPathCacheSharing: a repeated lookup returns the cached set; sources in
// the same relation to dst (same rack, same pod, other pod) share one set,
// sources in different relations — and sources in different shards, whose
// tables are private — do not.
func TestPathCacheSharing(t *testing.T) {
	ft := NewFatTree(4, Config{}) // 2 hosts/ToR, 4 hosts/pod; dst 5 is pod 1, rack 2
	if !sameSet(ft.Paths(0, 5), ft.Paths(0, 5)) {
		t.Error("paths should be cached and shared")
	}
	if !sameSet(ft.Paths(0, 5), ft.Paths(9, 5)) {
		t.Error("two other-pod sources should share dst's inter-pod route set")
	}
	if !sameSet(ft.Paths(6, 5), ft.Paths(7, 5)) {
		t.Error("two same-pod sources should share dst's intra-pod route set")
	}
	if sameSet(ft.Paths(0, 5), ft.Paths(6, 5)) || sameSet(ft.Paths(6, 5), ft.Paths(4, 5)) || sameSet(ft.Paths(0, 5), ft.Paths(4, 5)) {
		t.Error("sources in different relations to dst must not share a route set")
	}

	tt := NewTwoTier(3, 2, 2, Config{})
	if !sameSet(tt.Paths(0, 3), tt.Paths(5, 3)) || sameSet(tt.Paths(0, 3), tt.Paths(2, 3)) {
		t.Error("TwoTier: other-rack sources share one set, the same-rack source has its own")
	}

	jf := NewJellyfish(12, 3, 4, 8, Config{Seed: 7})
	if !sameSet(jf.Paths(0, 30), jf.Paths(2, 30)) || sameSet(jf.Paths(0, 30), jf.Paths(3, 30)) {
		t.Error("Jellyfish: hosts of one switch share a set, hosts of another switch do not")
	}

	sharded := NewFatTree(4, Config{Shards: 2})
	defer sharded.Close()
	if sharded.ShardOfHost(0) == sharded.ShardOfHost(12) {
		t.Fatal("hosts 0 and 12 should live in different shards")
	}
	if sameSet(sharded.Paths(0, 5), sharded.Paths(12, 5)) {
		t.Error("route tables are per source shard: sets must not be shared across shards")
	}
}

// cachedRouteSets counts the route sets a network holds across its shards.
func cachedRouteSets(n *Network) int {
	sets := 0
	for i := range n.routes {
		for _, row := range n.routes[i].rows {
			for _, set := range row {
				if set != nil {
					sets++
				}
			}
		}
	}
	return sets
}

// TestRouteTableIsPerDestination: after an all-to-all sweep the cache holds
// at most three route sets per destination (per-pair caching held
// hosts*(hosts-1)), and Jellyfish one per (source switch, destination).
func TestRouteTableIsPerDestination(t *testing.T) {
	ft := NewFatTree(8, Config{})
	hosts := int32(ft.NumHosts())
	for src := int32(0); src < hosts; src++ {
		for dst := int32(0); dst < hosts; dst++ {
			ft.Paths(src, dst)
		}
	}
	if got, limit := cachedRouteSets(&ft.Network), 3*int(hosts); got > limit || got == 0 {
		t.Errorf("FatTree k=8 caches %d route sets after all-to-all, want 1..%d", got, limit)
	}

	jf := NewJellyfish(12, 3, 4, 8, Config{Seed: 7})
	hosts = int32(jf.NumHosts())
	for src := int32(0); src < hosts; src++ {
		for dst := int32(0); dst < hosts; dst++ {
			jf.Paths(src, dst)
		}
	}
	if got, want := cachedRouteSets(&jf.Network), jf.NSwitches*int(hosts); got != want {
		t.Errorf("Jellyfish caches %d route sets after all-to-all, want switches*hosts = %d", got, want)
	}
}
