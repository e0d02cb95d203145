package topo

import (
	"slices"
	"testing"
	"testing/quick"

	"ndp/internal/sim"
)

func TestJellyfishConstruction(t *testing.T) {
	j := NewJellyfish(16, 4, 4, 8, Config{Seed: 3})
	if j.NumHosts() != 64 {
		t.Fatalf("hosts = %d, want 64", j.NumHosts())
	}
	if len(j.Switches) != 16 {
		t.Fatalf("switches = %d", len(j.Switches))
	}
	// Degree-regular (the builder may fall slightly short only on
	// pathological seeds; this seed must be exact).
	for s, nbs := range j.adj {
		if len(nbs) != 4 {
			t.Errorf("switch %d degree %d, want 4", s, len(nbs))
		}
		for _, nb := range nbs {
			if nb == s {
				t.Errorf("switch %d has a self-loop", s)
			}
		}
	}
}

func TestJellyfishPathsDeliver(t *testing.T) {
	j := NewJellyfish(12, 2, 4, 8, Config{Seed: 7})
	for _, pair := range [][2]int32{{0, 23}, {5, 18}, {1, 2}, {22, 3}} {
		src, dst := pair[0], pair[1]
		paths := j.Paths(src, dst)
		if paths == 0 {
			t.Fatalf("no paths %d->%d", src, dst)
		}
		for r := 0; r < paths; r++ {
			if got := deliver(t, &j.Network, j.Hosts, src, dst, int16(r)); got != dst {
				t.Errorf("route %d from %d delivered to %d, want %d", r, src, got, dst)
			}
		}
		// Destination routing too (bounced headers).
		if got := deliver(t, &j.Network, j.Hosts, src, dst, -1); got != dst {
			t.Errorf("destination-routed %d->%d arrived at %d", src, dst, got)
		}
	}
}

func TestJellyfishPathAsymmetry(t *testing.T) {
	// The point of the topology: enumerated route sets mix lengths.
	j := NewJellyfish(20, 2, 3, 8, Config{Seed: 11})
	min, max := j.PathLengthSpread(200, sim.NewRand(5))
	if max <= min {
		t.Errorf("path lengths uniform (min=%d max=%d); Jellyfish sets should be asymmetric", min, max)
	}
}

// Property: every enumerated route for random pairs delivers correctly.
func TestJellyfishPathsProperty(t *testing.T) {
	j := NewJellyfish(10, 2, 4, 6, Config{Seed: 23})
	n := int32(j.NumHosts())
	prop := func(a, b uint8) bool {
		src, dst := int32(a)%n, int32(b)%n
		if src == dst {
			return true
		}
		for r := 0; r < j.Paths(src, dst); r++ {
			if got := deliver(t, &j.Network, j.Hosts, src, dst, int16(r)); got != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandomRegularGraphConnected(t *testing.T) {
	for seed := uint64(1); seed < 20; seed++ {
		adj, _ := randomRegularGraph(14, 3, sim.NewRand(seed))
		// BFS from 0 must reach everything (ring guarantees it).
		seen := make([]bool, 14)
		seen[0] = true
		queue := []int{0}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("seed %d: switch %d unreachable", seed, i)
			}
		}
	}
}

// TestJellyfishShardsAreRingArcs: a sharded Jellyfish gives each shard a
// contiguous arc of the ring its wiring starts from, balanced to within one
// switch, with hosts beside their switch. Switch ids carry no locality, so
// the arcs are what keeps the cut below that of contiguous id ranges: the
// ring's own edges cross only where two arcs meet.
func TestJellyfishShardsAreRingArcs(t *testing.T) {
	const n, hosts, degree = 64, 4, 8
	for seed := uint64(1); seed <= 3; seed++ {
		// The wiring's draws, replayed from the seed the build derives.
		adj, ring := randomRegularGraph(n, degree, sim.NewRand(seed^0x9e3779b97f4a7c15))
		for _, shards := range []int{2, 4, 8} {
			j := NewJellyfish(n, hosts, degree, 8, Config{Seed: seed, Shards: shards})
			if !slices.EqualFunc(adj, j.adj, slices.Equal) {
				t.Fatalf("seed %d: the replayed wiring differs from the build's", seed)
			}
			size := make([]int, shards)
			for pos, s := range ring {
				if got, want := j.swShard[s], pos*shards/n; got != want {
					t.Fatalf("seed %d, %d shards: switch %d at ring position %d is on shard %d, want %d", seed, shards, s, pos, got, want)
				}
				size[j.swShard[s]]++
			}
			if slices.Min(size) < slices.Max(size)-1 {
				t.Errorf("seed %d, %d shards: arc sizes %v", seed, shards, size)
			}
			for h := range j.Hosts {
				if sw, _ := j.locate(int32(h)); j.hostShard[h] != j.swShard[sw] {
					t.Fatalf("seed %d, %d shards: host %d not on its switch's shard", seed, shards, h)
				}
			}
			cut, idCut := 0, 0
			for s, nbs := range j.adj {
				for _, nb := range nbs {
					if j.swShard[s] != j.swShard[nb] {
						cut++
					}
					if s*shards/n != nb*shards/n {
						idCut++
					}
				}
			}
			if cut >= idCut {
				t.Errorf("seed %d, %d shards: %d cut links along the ring, %d by id range", seed, shards, cut, idCut)
			}
			j.Close()
		}
	}
}
