// Package workload generates the traffic patterns of the paper's
// evaluation: permutation and random traffic matrices, N-to-1 incasts,
// and the Facebook web-server flow-size distribution used for the
// oversubscribed-core experiment (§6.3, after Roy et al., SIGCOMM 2015).
package workload

import (
	"maps"
	"slices"

	"ndp/internal/sim"
)

// Permutation returns a derangement-style traffic matrix: dst[i] is the
// destination of host i, every host sends to exactly one host and receives
// from exactly one host, and no host sends to itself. This is the paper's
// worst-case full-load matrix.
func Permutation(n int, r *sim.Rand) []int {
	for {
		p := r.Perm(n)
		ok := true
		for i, d := range p {
			if d == i {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// RandomMatrix returns dst[i] = a uniformly random host other than i
// (hosts may receive from many senders — the "Random" curve of Figure 4).
func RandomMatrix(n int, r *sim.Rand) []int {
	dst := make([]int, n)
	for i := range dst {
		d := r.Intn(n - 1)
		if d >= i {
			d++
		}
		dst[i] = d
	}
	return dst
}

// IncastSenders picks n distinct senders for a single receiver, nearest
// racks first (the paper's incasts fan in from across the topology; taking
// hosts in index order after the receiver reproduces the mixed-distance
// composition).
func IncastSenders(receiver, n, hosts int) []int {
	if n > hosts-1 {
		n = hosts - 1
	}
	out := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, (receiver+i)%hosts)
	}
	return out
}

// SizeDist is a discrete flow-size distribution sampled by inverse CDF.
type SizeDist struct {
	sizes []int64   // ascending
	cdf   []float64 // cumulative probability aligned with sizes
}

// NewSizeDist builds a distribution from (size, probability) pairs; the
// probabilities are normalized.
func NewSizeDist(pairs map[int64]float64) *SizeDist {
	// Sorted-key iteration throughout: float sums do not commute bit for
	// bit, so accumulating total or cum in map order would make the CDF —
	// and every golden downstream of it — differ between runs.
	d := &SizeDist{sizes: slices.Sorted(maps.Keys(pairs))}
	var total float64
	for _, s := range d.sizes {
		total += pairs[s]
	}
	var cum float64
	for _, s := range d.sizes {
		cum += pairs[s] / total
		d.cdf = append(d.cdf, cum)
	}
	return d
}

// Sample draws one flow size.
func (d *SizeDist) Sample(r *sim.Rand) int64 {
	u := r.Float64()
	for i, c := range d.cdf {
		if u <= c {
			return d.sizes[i]
		}
	}
	return d.sizes[len(d.sizes)-1]
}

// Mean returns the distribution mean in bytes.
func (d *SizeDist) Mean() float64 {
	var m, prev float64
	for i, s := range d.sizes {
		m += float64(s) * (d.cdf[i] - prev)
		prev = d.cdf[i]
	}
	return m
}

// FacebookWeb approximates the web-server flow-size distribution of Roy et
// al. (Figure 6a): dominated by very small flows (single small packets —
// the "really small packets, poor compression" case the paper calls least
// favourable to NDP), with a heavy tail of multi-hundred-KB responses.
func FacebookWeb() *SizeDist {
	return NewSizeDist(map[int64]float64{
		300:     0.30,
		700:     0.20,
		2_000:   0.15,
		5_000:   0.10,
		10_000:  0.08,
		30_000:  0.07,
		80_000:  0.05,
		200_000: 0.03,
		600_000: 0.02,
	})
}

// ClosedLoop drives a closed-loop flow generator: each host keeps Conns
// simultaneous connections to random destinations; when a flow finishes, a
// new one starts after a gap (the paper uses a 1ms median inter-flow gap).
// The caller supplies Start, which must launch one flow and invoke done
// (with the completion time) when it completes.
//
// All state is per-source: each source host draws destinations, sizes and
// gaps from its own RNG stream, and re-launches are routed back to the
// source's scheduling domain through Defer. A flow's completion fires
// wherever the receiver lives; the restart is deferred onto the source
// NotifyLatency later. This decomposition is what lets the generator run
// unchanged — and bit-identically — on a sharded engine, where source and
// receiver may live on different event lists: a single shared RNG would
// make draw values depend on the global completion interleaving.
type ClosedLoop struct {
	Hosts int
	Conns int
	Gap   sim.Time
	Sizes *SizeDist
	// Seed derives the per-source RNG streams.
	Seed uint64
	// NotifyLatency is the delay between a flow completing at host from
	// (where done runs) and source host to learning about it. It models
	// the returning notice and must be at least the engine's cross-shard
	// lookahead for the pair, which depends on where the two hosts landed
	// — wire it to the cluster's MinPathDelay (the minimum physical path
	// is never shorter than the shard cut it crosses). Unsharded callers
	// may return any constant.
	NotifyLatency func(from, to int) sim.Time

	// Start launches a flow of size bytes from src to dst; it must call
	// the provided completion callback with the completion time. It runs
	// in the source host's scheduling domain. slot identifies the
	// connection slot (0..Hosts*Conns-1) launching the flow: a slot's
	// flows are strictly sequential (the next starts only after done has
	// run), so a caller may keep per-slot rather than per-flow state —
	// including the callbacks it wires up — without allocating per flow.
	Start func(slot, src, dst int, size int64, done func(at sim.Time))
	// Defer schedules h.OnEvent(arg) at absolute time at in host to's
	// scheduling domain, emitted by host from (wire it to topo's
	// Cluster.Defer). The loop's own commands — the hop back to the source
	// and the think-time gap — are events of the connection slot itself, so
	// the loop allocates nothing per flow.
	Defer func(from, to int, at sim.Time, h sim.Handler, arg uint64)
	// DoneHost reports the host in whose scheduling domain Start's done
	// callback is invoked for a src->dst flow. Most transports complete at
	// the receiver (the default, nil = dst), but sender-driven ones (pHost
	// counts acks at the source) complete at the source — and the Defer
	// hop back to the source must name the emitting domain correctly, or a
	// sharded engine would mutate another shard's emission counters.
	DoneHost func(src, dst int) int

	rands    []sim.Rand
	launched []int64
	slots    []connSlot
}

// Run primes Conns flows per host; completions keep the loop going until
// the caller's deadline bounds the simulation.
func (c *ClosedLoop) Run() {
	c.rands = make([]sim.Rand, c.Hosts)
	c.launched = make([]int64, c.Hosts)
	for h := 0; h < c.Hosts; h++ {
		c.rands[h].Init(c.Seed ^ (uint64(h)+1)*0x9e3779b97f4a7c15)
	}
	c.slots = make([]connSlot, c.Hosts*c.Conns)
	i := 0
	for h := 0; h < c.Hosts; h++ {
		for k := 0; k < c.Conns; k++ {
			s := &c.slots[i]
			i++
			s.init(c, i-1, h)
			s.launch()
		}
	}
}

// Launched returns the total flows started across all sources.
func (c *ClosedLoop) Launched() int64 {
	var n int64
	for _, v := range c.launched {
		n += v
	}
	return n
}

// connSlot is one of a source's Conns connection slots. A slot's flows are
// strictly sequential — launch, complete, hop back, gap, relaunch — so the
// per-flight fields (doneHost, notify) are single-occupancy, the completion
// callback is built once per slot instead of once per flow, and the slot is
// itself the sim.Handler of both deferred commands in the chain.
type connSlot struct {
	c        *ClosedLoop
	idx      int
	src      int
	doneHost int
	notify   sim.Time

	done func(at sim.Time)
}

// connSlot event kinds (the arg of its deferred commands); both run in the
// source's domain.
const (
	slotHopBack  = iota // the completion notice reached the source: draw the gap
	slotRelaunch        // the gap elapsed: launch the next flow
)

func (s *connSlot) init(c *ClosedLoop, idx, src int) {
	s.c = c
	s.idx = idx
	s.src = src
	s.done = s.onDone
}

func (s *connSlot) launch() {
	c := s.c
	r := &c.rands[s.src]
	dst := r.Intn(c.Hosts - 1)
	if dst >= s.src {
		dst++
	}
	size := c.Sizes.Sample(r)
	c.launched[s.src]++
	s.doneHost = dst
	if c.DoneHost != nil {
		s.doneHost = c.DoneHost(s.src, dst)
	}
	c.Start(s.idx, s.src, dst, size, s.done)
}

// onDone runs in doneHost's domain: hop back to the source's domain, then
// draw the gap there (so the source's RNG is only ever touched in its own
// domain, in its own deterministic order).
func (s *connSlot) onDone(at sim.Time) {
	s.notify = at + s.c.NotifyLatency(s.doneHost, s.src)
	s.c.Defer(s.doneHost, s.src, s.notify, s, slotHopBack)
}

// OnEvent runs the slot's deferred commands (sim.Handler).
func (s *connSlot) OnEvent(kind uint64) {
	c := s.c
	if kind == slotHopBack {
		gap := c.Gap/2 + c.rands[s.src].Duration(c.Gap) // median ~= Gap
		c.Defer(s.src, s.src, s.notify+gap, s, slotRelaunch)
		return
	}
	s.launch()
}
