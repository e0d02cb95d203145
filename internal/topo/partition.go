package topo

// This file is the topology partitioner behind cfg.Shards: deterministic
// helpers that split a topology's components across per-core event-list
// domains so the conservative windowed runner (sim.MultiRunner) can advance
// them in parallel. Partitions only affect *which goroutine* simulates a
// component — results are bit-identical for every layout — so the only
// quality metric is the edge cut (fewer crossing links means less mailbox
// traffic per window) and balance (even event load per shard).
//
// FatTree partitions by pod and TwoTier by ToR group via groupShard: the
// natural unit of locality is a contiguous index range, and only the
// upper-layer mesh crosses the cut. Jellyfish has no such structure, so it
// uses greedyEdgeCutParts: BFS-grown balanced regions over the random
// switch graph, refined by a greedy boundary pass that shrinks the cut.

// groupShard maps contiguous group index ranges onto shards: group g of
// nGroups lands on shard g*shards/nGroups, so every shard owns a contiguous
// run of groups and the runs differ in size by at most one group.
func groupShard(group, nGroups, shards int) int {
	return group * shards / nGroups
}

// greedyEdgeCutParts splits a connected graph (adjacency lists, node ids
// dense in [0, n)) into parts balanced groups with a small edge cut. The
// algorithm is deterministic in (adj, parts): BFS regions grow round-robin
// from seeds spread across the id space until every node is claimed, then a
// few greedy refinement passes move boundary nodes to the neighboring part
// holding more of their edges, when that strictly reduces the cut without
// unbalancing the sizes. Returns the part id per node.
func greedyEdgeCutParts(adj [][]int, parts int) []int {
	n := len(adj)
	if parts > n {
		parts = n
	}
	part := make([]int, n)
	if parts <= 1 {
		return part
	}
	for i := range part {
		part[i] = -1
	}
	// Balanced quotas: the first n%parts parts hold one extra node.
	floor, ceil := n/parts, n/parts
	if n%parts != 0 {
		ceil++
	}
	quota := make([]int, parts)
	for p := range quota {
		quota[p] = floor
		if p < n%parts {
			quota[p] = ceil
		}
	}
	size := make([]int, parts)
	frontier := make([][]int, parts)
	assigned := 0
	assign := func(v, p int) {
		part[v] = p
		size[p]++
		assigned++
		frontier[p] = append(frontier[p], v)
	}
	for p := 0; p < parts; p++ {
		seed := p * n / parts
		for part[seed] != -1 {
			seed = (seed + 1) % n
		}
		assign(seed, p)
	}
	// BFS growth: parts take turns claiming one unassigned neighbor of
	// their frontier; a part whose frontier is exhausted (its region is
	// walled in) grabs the lowest unassigned node and keeps growing there.
	for assigned < n {
		for p := 0; p < parts && assigned < n; p++ {
			if size[p] >= quota[p] {
				continue
			}
			v := -1
			for v < 0 && len(frontier[p]) > 0 {
				u := frontier[p][0]
				for _, nb := range adj[u] {
					if part[nb] == -1 {
						v = nb
						break
					}
				}
				if v < 0 {
					frontier[p] = frontier[p][1:] // build-time BFS frontier, not a hot queue
				}
			}
			if v < 0 {
				for u := 0; u < n; u++ {
					if part[u] == -1 {
						v = u
						break
					}
				}
			}
			assign(v, p)
		}
	}
	// Greedy refinement: move a node to the adjacent part that holds more
	// of its edges when the move strictly shrinks the cut and both sizes
	// stay within one node of the balanced quota.
	cnt := make([]int, parts)
	for pass := 0; pass < 4; pass++ {
		moved := false
		for v := 0; v < n; v++ {
			for p := range cnt {
				cnt[p] = 0
			}
			for _, nb := range adj[v] {
				cnt[part[nb]]++
			}
			cur, best := part[v], part[v]
			for p := 0; p < parts; p++ {
				if cnt[p] > cnt[best] {
					best = p
				}
			}
			if best == cur || cnt[best] <= cnt[cur] {
				continue
			}
			if size[cur]-1 < floor-1 || size[cur] <= 1 || size[best]+1 > ceil+1 {
				continue
			}
			size[cur]--
			size[best]++
			part[v] = best
			moved = true
		}
		if !moved {
			break
		}
	}
	return part
}
