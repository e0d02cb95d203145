package topo

import (
	"fmt"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Jellyfish is a random regular graph of switches (Singla et al., NSDI
// 2012), the asymmetric topology the paper's "Limitations of NDP" section
// (§3) calls out: paths between hosts have different lengths, so NDP's
// uniform per-packet spraying wastes capacity on long paths under load,
// whereas per-path congestion control (MPTCP) adapts.
//
// Each of N switches has H host ports and R inter-switch ports wired as a
// connected random R-regular graph. Path enumeration returns up to MaxPaths
// routes per pair: all shortest paths plus paths one hop longer (the ECMP
// set a Jellyfish deployment would use), so the set is intentionally
// length-asymmetric.
type Jellyfish struct {
	Network

	NSwitches, HostsPerSwitch, Degree int
	MaxPaths                          int

	adj [][]int // adjacency: switch -> neighbor switch ids

	// port layout per switch: [0,H) host ports, then one port per adj entry.
	// dists[d] holds BFS distances from every switch to switch d. It is
	// precomputed at build time and read-only afterwards: routing consults
	// it per packet from every shard, so a lazily-filled cache would be a
	// cross-shard data race.
	dists [][]int
}

// NewJellyfish builds a connected random regular topology. n*degree must be
// even; degree >= 2. maxPaths bounds the per-pair path enumeration
// (default 8).
//
// With cfg.Shards > 1 the random graph is split by greedyEdgeCutParts into
// balanced BFS-grown switch regions, each owning its own event list; hosts
// live with their switch. Any inter-switch link whose endpoints land in
// different regions crosses the cut, so the conservative lookahead is the
// link propagation delay. Shards is clamped to the switch count.
func NewJellyfish(n, hostsPerSwitch, degree, maxPaths int, cfg Config) *Jellyfish {
	if n < 3 || degree < 2 || n*degree%2 != 0 {
		panic(fmt.Sprintf("topo: invalid Jellyfish n=%d degree=%d", n, degree))
	}
	if maxPaths <= 0 {
		maxPaths = 8
	}
	cfg = cfg.withDefaults()
	j := &Jellyfish{NSwitches: n, HostsPerSwitch: hostsPerSwitch, Degree: degree, MaxPaths: maxPaths}
	shards := cfg.Shards
	if shards > n {
		shards = n // at most one shard per switch
	}
	j.initShards(cfg, shards)

	j.adj = randomRegularGraph(n, degree, j.Rand)
	j.swShard = greedyEdgeCutParts(j.adj, j.Shards())
	j.precomputeDists()

	for s := 0; s < n; s++ {
		sw := fabric.NewSwitch(j.ShardEventList(j.swShard[s]), s, fmt.Sprintf("jf%d", s))
		sw.Route = j.route
		j.Switches = append(j.Switches, sw)
		j.switchRand(s)
		if cfg.Lossless {
			sw.EnableLossless(cfg.LosslessLimit, cfg.PFCXoff, cfg.PFCXon)
		}
	}
	newPort := func(shard int, name string, q fabric.Queue) *fabric.Port {
		p := fabric.NewPort(j.ShardEventList(shard), name, q, cfg.LinkRateBps, cfg.LinkDelay)
		p.UID = j.allocPortUID()
		return p
	}
	wire := func(p *fabric.Port, from, to int, dst fabric.Sink) {
		iq := link(p, dst)
		if from != to {
			p.Cross = j.noteCrossLink(from, to, p.Delay)
			if iq != nil {
				// PFC reverse channel: pause signals toward the upstream
				// transmitter cross back over the same cut.
				iq.Cross = j.noteCrossLink(to, from, p.Delay)
			}
		}
	}
	// Hosts and host ports: hosts always share their switch's shard, so
	// these links never cross the cut.
	for s := 0; s < n; s++ {
		for o := 0; o < hostsPerSwitch; o++ {
			id := int32(s*hostsPerSwitch + o)
			shard := j.swShard[s]
			host := fabric.NewHost(j.ShardEventList(shard), id, fmt.Sprintf("h%d", id))
			j.Hosts = append(j.Hosts, host)
			j.hostShard = append(j.hostShard, shard)
			down := newPort(shard, portName("jf", s, int(id)), cfg.SwitchQueue(fmt.Sprintf("jf%d->h%d", s, id)))
			link(down, host)
			j.Switches[s].AddPort(down)
			up := newPort(shard, portName("h", int(id), s), cfg.HostQueue(fmt.Sprintf("h%d", id)))
			link(up, j.Switches[s])
			host.NIC = up
		}
	}
	// Inter-switch ports, in adjacency order.
	for s := 0; s < n; s++ {
		for _, nb := range j.adj[s] {
			p := newPort(j.swShard[s], portName("jfUp", s, nb), cfg.SwitchQueue(fmt.Sprintf("jf%d->jf%d", s, nb)))
			wire(p, j.swShard[s], j.swShard[nb], j.Switches[nb])
			j.Switches[s].AddPort(p)
		}
	}
	j.finishShards()
	return j
}

// randomRegularGraph wires a connected degree-regular graph: a Hamiltonian
// ring guarantees connectivity and degree 2; remaining stubs are matched
// randomly with rejection of self-loops and duplicate edges.
func randomRegularGraph(n, degree int, r *sim.Rand) [][]int {
	adj := make([][]int, n)
	has := func(a, b int) bool {
		for _, x := range adj[a] {
			if x == b {
				return true
			}
		}
		return false
	}
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	perm := r.Perm(n) // random ring order
	for i := 0; i < n; i++ {
		addEdge(perm[i], perm[(i+1)%n])
	}
	removeEdge := func(a, b int) {
		for i, x := range adj[a] {
			if x == b {
				adj[a] = append(adj[a][:i], adj[a][i+1:]...)
				break
			}
		}
		for i, x := range adj[b] {
			if x == a {
				adj[b] = append(adj[b][:i], adj[b][i+1:]...)
				break
			}
		}
	}
	// Match remaining stubs; when the random matching gets stuck (the
	// leftover stubs are mutual neighbors or identical), break an existing
	// edge (c,d) and rewire a-c, b-d — the standard Jellyfish fix-up.
	for attempt := 0; attempt < 500; attempt++ {
		var stubs []int
		for s := 0; s < n; s++ {
			for d := len(adj[s]); d < degree; d++ {
				stubs = append(stubs, s)
			}
		}
		if len(stubs) == 0 {
			return adj
		}
		r.ShuffleInts(stubs)
		progress := false
		for i := 0; i+1 < len(stubs); i += 2 {
			a, b := stubs[i], stubs[i+1]
			if a != b && !has(a, b) && len(adj[a]) < degree && len(adj[b]) < degree {
				addEdge(a, b)
				progress = true
			}
		}
		if !progress && attempt > 20 && len(stubs) >= 2 {
			// Swap: break a random existing edge (c,d) disjoint from the
			// stuck stubs a,b and rewire. If both stubs belong to one node
			// (a==b), splice it into the middle of the edge (a-c, a-d);
			// otherwise cross-wire (a-c, b-d).
			a, b := stubs[0], stubs[1]
			for try := 0; try < 200; try++ {
				c := r.Intn(n)
				if c == a || c == b || len(adj[c]) == 0 {
					continue
				}
				d := adj[c][r.Intn(len(adj[c]))]
				if d == a || d == b {
					continue
				}
				if a == b {
					if has(a, c) || has(a, d) {
						continue
					}
					removeEdge(c, d)
					addEdge(a, c)
					addEdge(a, d)
				} else {
					if has(a, c) || has(b, d) {
						continue
					}
					removeEdge(c, d)
					addEdge(a, c)
					addEdge(b, d)
				}
				break
			}
		}
	}
	return adj
}

func (j *Jellyfish) locate(h int32) (sw, off int) {
	return int(h) / j.HostsPerSwitch, int(h) % j.HostsPerSwitch
}

// precomputeDists fills dists with BFS distances toward every switch.
func (j *Jellyfish) precomputeDists() {
	j.dists = make([][]int, j.NSwitches)
	for dst := range j.dists {
		d := make([]int, j.NSwitches)
		for i := range d {
			d[i] = -1
		}
		d[dst] = 0
		queue := []int{dst} // a BFS frontier, run once per destination at build time: not worth a fabric.Ring
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range j.adj[cur] {
				if d[nb] < 0 {
					d[nb] = d[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		j.dists[dst] = d
	}
}

// dist returns the precomputed BFS distances toward the destination switch.
func (j *Jellyfish) dist(dstSwitch int) []int { return j.dists[dstSwitch] }

// route follows source routes; destination-routed packets walk downhill on
// BFS distance (random tie-break among equally-good neighbors).
func (j *Jellyfish) route(sw *fabric.Switch, p *fabric.Packet) int {
	if out, ok := sourceRouteHop(p); ok {
		return out
	}
	dsw, doff := j.locate(p.Dst)
	if sw.ID == dsw {
		return doff
	}
	d := j.dist(dsw)
	var best []int
	bestD := d[sw.ID]
	for i, nb := range j.adj[sw.ID] {
		if d[nb] >= 0 && d[nb] < bestD {
			bestD = d[nb]
			best = best[:0]
			best = append(best, i)
		} else if d[nb] == bestD && bestD < d[sw.ID] {
			best = append(best, i)
		}
	}
	if len(best) == 0 {
		return -1
	}
	return j.HostsPerSwitch + best[j.swRand[sw.ID].Intn(len(best))]
}

// Paths enumerates up to MaxPaths source routes: all shortest switch paths
// plus paths allowing one sideways (equal-distance) hop — a deliberately
// length-mixed set reflecting Jellyfish ECMP. Routes start at the source's
// switch, so the set is cached per (source switch, dst) and shared by the
// hosts of that switch; callers must not mutate it.
func (j *Jellyfish) Paths(src, dst int32) [][]int16 {
	if src == dst {
		return nil
	}
	ssw, _ := j.locate(src)
	dsw, doff := j.locate(dst)
	t := &j.routes[j.hostShard[src]]
	row := t.row(ssw, j.NSwitches, len(j.Hosts))
	if p := row[dst]; p != nil {
		return p
	}
	var paths [][]int16
	if ssw == dsw {
		paths = t.slab.alloc(1, 1)
		paths[0][0] = int16(doff)
		row[dst] = paths
		return paths
	}
	d := j.dist(dsw)

	var walk func(cur int, route []int16, sidewaysUsed bool)
	walk = func(cur int, route []int16, sidewaysUsed bool) {
		if len(paths) >= j.MaxPaths {
			return
		}
		if cur == dsw {
			full := make([]int16, len(route)+1)
			copy(full, route)
			full[len(route)] = int16(doff)
			paths = append(paths, full)
			return
		}
		for i, nb := range j.adj[cur] {
			if d[nb] < 0 {
				continue
			}
			step := int16(j.HostsPerSwitch + i)
			// Copy the prefix: sibling branches must not share backing
			// arrays.
			next := append(append([]int16(nil), route...), step)
			switch {
			case d[nb] < d[cur]:
				walk(nb, next, sidewaysUsed)
			case d[nb] == d[cur] && !sidewaysUsed:
				walk(nb, next, true)
			}
		}
	}
	walk(ssw, nil, false)
	row[dst] = paths
	return paths
}

// NumHosts returns the host count.
func (j *Jellyfish) NumHosts() int { return len(j.Hosts) }

// MinPathDelay implements Cluster: two host links plus the BFS distance
// between the attachment switches, at the uniform per-link delay.
func (j *Jellyfish) MinPathDelay(src, dst int) sim.Time {
	if src == dst {
		return 0
	}
	ssw, _ := j.locate(int32(src))
	dsw, _ := j.locate(int32(dst))
	if ssw == dsw {
		return 2 * j.cfg.LinkDelay
	}
	return sim.Time(j.dist(dsw)[ssw]+2) * j.cfg.LinkDelay
}

// PathLengthSpread returns the min and max path lengths (switch hops) over
// a sample of host pairs — the asymmetry measure.
func (j *Jellyfish) PathLengthSpread(samples int, r *sim.Rand) (min, max int) {
	min, max = 1<<30, 0
	n := j.NumHosts()
	for i := 0; i < samples; i++ {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a == b {
			continue
		}
		for _, p := range j.Paths(a, b) {
			if len(p) < min {
				min = len(p)
			}
			if len(p) > max {
				max = len(p)
			}
		}
	}
	return min, max
}
