package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"ndp/internal/core"
	"ndp/internal/harness"
	"ndp/internal/phost"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
)

// Run executes the Spec and returns aggregated Metrics. The run decomposes
// into Spec.Repeats independent sweep jobs (one simulation per derived
// seed) executed on a Workers-sized pool; Metrics are bit-identical for
// any worker count. Simulation failures surface as errors, never panics.
func Run(spec Spec) (*Metrics, error) {
	m, _, err := RunWithStats(spec)
	return m, err
}

// RunStats are engine-level observables of one Run: how much simulation
// machinery turned to produce the Metrics. They are deliberately not part
// of Metrics — event counts change whenever the scheduler changes, while
// Metrics are pinned bit-for-bit by the golden regression suite.
type RunStats struct {
	// Events is the total scheduler events executed across repeats.
	Events int64
	// SerEndEvents is how many of them were serialization ends of a port.
	// Switch ports whose link stays inside one shard serialize on demand and
	// fire none, so this — and with it Events — depends on the shard layout;
	// Events - SerEndEvents does not.
	SerEndEvents int64
	// CommandEvents is how many deferred commands (topo.Cluster.Defer:
	// receiver registration and teardown, closed-loop hop-backs and gaps)
	// the hosts emitted — each one event of Events once its time has come,
	// so the few emitted within a path delay or a gap of the deadline are
	// counted here and not there. The same for every shard layout.
	CommandEvents int64
	// PacketHops is the total packet wire-traversals across repeats.
	PacketHops int64
	// PacketsLeaked is the arena leak counter summed across repeats: packets
	// still outstanding after each network's Close released everything the
	// fabric and endpoints held. Always zero unless a component lost track
	// of a packet; the golden suite asserts it.
	PacketsLeaked int64
}

// RunWithStats is Run plus the engine observables the bench harness
// reports throughput against.
func RunWithStats(spec Spec) (*Metrics, RunStats, error) {
	m, stats, _, err := runWithWindows(spec)
	return m, stats, err
}

// engineStats are the engine's own counters, summed across repeats: the
// sharded runner's windows (zero when unsharded) and the scheduler's tiers.
// They stay out of RunStats, which is compared across shard counts.
type engineStats struct {
	windows sim.WindowStats
	queue   sim.QueueStats
}

// runWithWindows is RunWithStats plus the engine's own counters.
func runWithWindows(spec Spec) (m *Metrics, stats RunStats, engine engineStats, err error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, RunStats{}, engineStats{}, err
	}
	name := spec.name
	if name == "" {
		name = spec.Workload.Kind
	}
	// The job pool re-raises simulation panics (with job attribution) on
	// this goroutine; convert them to the error return the public API
	// promises.
	defer func() {
		if p := recover(); p != nil {
			m, stats, engine, err = nil, RunStats{}, engineStats{}, fmt.Errorf("scenario: run failed: %v", p)
		}
	}()
	seeds := harness.SweepSeeds(spec.Seed, spec.Repeats)
	jobs := make([]harness.Job[*runOut], spec.Repeats)
	for i := range jobs {
		i := i
		jobs[i] = harness.NewJob(
			fmt.Sprintf("scenario/%s/%s/rep%d", name, spec.Transport, i),
			seeds[i],
			func(seed uint64) *runOut { return runOnce(spec, seed, i) })
	}
	opts := harness.Options{Workers: spec.Workers}
	if hook := spec.progress; hook != nil {
		repeats := spec.Repeats
		opts.Progress = func(done, total int) {
			hook(Progress{Repeat: -1, Repeats: repeats, Done: done})
		}
	}
	outs := harness.RunJobs(opts, jobs)
	for _, o := range outs {
		stats.Events += o.events
		stats.SerEndEvents += o.serEnds
		stats.CommandEvents += o.commands
		stats.PacketHops += o.hops
		stats.PacketsLeaked += o.leaked
		engine.windows.Add(o.windows)
		engine.queue.Add(o.queue)
	}
	return merge(spec, outs), stats, engine, nil
}

// runOut is one repetition's raw contribution to the Metrics.
type runOut struct {
	fcts      []float64 // microseconds, flow order
	goodput   []float64 // Gb/s, flow order
	launched  int
	completed int
	excluded  int // paths excluded by NDP's scoreboard
	last      sim.Time
	counters  topo.SwitchStats
	linkRate  int64
	events    int64 // scheduler events executed
	serEnds   int64 // of which port serialization ends
	commands  int64 // deferred commands emitted
	hops      int64 // packet wire-traversals
	leaked    int64 // arena packets still outstanding after Close
	windows   sim.WindowStats
	queue     sim.QueueStats
}

// runOnce builds the network for one derived seed and drives the workload.
// Everything inside derives from the seed alone, which is what lets the
// job pool schedule repetitions on any worker without perturbing results —
// and, with Shards > 1, lets the windowed multi-list runner advance the
// partitions in parallel without perturbing them either.
func runOnce(spec Spec, seed uint64, rep int) *runOut {
	net := spec.harnessTransport().Build(spec.Topology.builder(), topo.Config{Seed: seed, Shards: spec.Shards})
	// Close is idempotent; the deferred call only matters if a panic
	// unwinds past the explicit one below.
	defer net.Close()
	for _, f := range spec.Failures {
		net.Cluster().(*topo.FatTree).DegradeLink(f.Agg, f.CoreOff, f.RateBps)
	}
	out := &runOut{linkRate: net.Cluster().LinkRate()}
	switch spec.Workload.Kind {
	case "incast":
		runIncast(spec, rep, net, out)
	case "rpc":
		runRPC(spec, seed, rep, net, out)
	default: // permutation, random
		runMatrix(spec, seed, rep, net, out)
	}
	out.counters = net.Cluster().CollectStats()
	out.events = int64(net.Runner().Executed())
	out.queue = net.Runner().QueueStats()
	out.hops = net.Cluster().PacketHops()
	out.serEnds = net.Cluster().SerEndEvents()
	out.commands = net.Cluster().CommandEvents()
	if mr, ok := net.Runner().(*sim.MultiRunner); ok {
		out.windows = mr.WindowStats()
	}
	// Close releases every packet the fabric and endpoints still hold;
	// whatever the arenas then report outstanding has truly been lost.
	net.Close()
	out.leaked = net.Cluster().PacketsInUse()
	return out
}

// runIncast fans Degree flows into the receiver and records each FCT.
// Validate already bounded the degree by the host count, so the launched
// flow count always matches the Spec. Completions write into per-flow
// slots (never a shared counter), so shards may finish flows concurrently.
func runIncast(spec Spec, rep int, net harness.Net, out *runOut) {
	w := spec.Workload
	hosts := net.Cluster().NumHosts()
	degree := w.Degree
	senders := workload.IncastSenders(w.Receiver, degree, hosts)
	done := make([]sim.Time, len(senders))
	flows := make([]harness.Flow, len(senders))
	for i, s := range senders {
		i := i
		flows[i] = net.StartFlow(s, w.Receiver, w.FlowSize, harness.StartOpts{
			Priority: w.PrioritizeLast && i == len(senders)-1,
			OnDone:   func(at sim.Time) { done[i] = at },
		})
	}
	out.launched = len(senders)
	optimal := sim.FromSeconds(float64(degree) * float64(w.FlowSize) * 8 / float64(out.linkRate))
	deadline := fctDeadline(spec.Deadline, optimal)
	runTo(spec, rep, net.Runner(), deadline, deadline)
	collectFCTs(out, done)
	out.excluded = countExcludedPaths(flows)
}

// runMatrix drives a permutation or random traffic matrix: unbounded flows
// are metered for goodput over Warmup/Window; sized flows are measured by
// completion time.
func runMatrix(spec Spec, seed uint64, rep int, net harness.Net, out *runOut) {
	w := spec.Workload
	hosts := net.Cluster().NumHosts()
	var dst []int
	if w.Kind == "random" {
		dst = workload.RandomMatrix(hosts, sim.NewRand(seed))
	} else {
		dst = workload.Permutation(hosts, sim.NewRand(seed))
	}
	out.launched = len(dst)

	if w.unbounded() {
		flows := make([]harness.Flow, len(dst))
		for src, d := range dst {
			flows[src] = net.StartFlow(src, d, -1, harness.StartOpts{})
		}
		warm, window := simDur(spec.Warmup), simDur(spec.Window)
		runner := net.Runner()
		runTo(spec, rep, runner, warm, warm+window)
		base := make([]int64, len(flows))
		for i, f := range flows {
			base[i] = f.AckedBytes()
		}
		runTo(spec, rep, runner, warm+window, warm+window)
		out.goodput = make([]float64, len(flows))
		for i, f := range flows {
			out.goodput[i] = stats.Gbps(f.AckedBytes()-base[i], window)
		}
		out.excluded = countExcludedPaths(flows)
		return
	}

	done := make([]sim.Time, len(dst))
	flows := make([]harness.Flow, len(dst))
	for src, d := range dst {
		src := src
		flows[src] = net.StartFlow(src, d, w.FlowSize, harness.StartOpts{
			OnDone: func(at sim.Time) { done[src] = at },
		})
	}
	optimal := sim.FromSeconds(float64(w.FlowSize) * 8 / float64(out.linkRate))
	deadline := fctDeadline(spec.Deadline, optimal*100)
	runTo(spec, rep, net.Runner(), deadline, deadline)
	collectFCTs(out, done)
	out.excluded = countExcludedPaths(flows)
}

// rpcDone is one closed-loop completion record. Completions land on the
// shard of the transport's DoneHost (the receiver for NDP and the TCP
// family, the sender for pHost); records are buffered per shard and merged
// into one deterministic order afterwards, so concurrent shards never
// contend and the merged result is independent of the shard layout.
type rpcDone struct {
	at       sim.Time
	us       float64
	src, dst int
}

// rpcLog is one shard's completion records in fixed-size chunks: a run
// completes tens of thousands of flows, and one slice grown by append copied
// every record five times over on its way there (a third of what a churn
// iteration allocated).
type rpcLog struct{ chunks [][]rpcDone }

const rpcLogChunk = 4096

func (l *rpcLog) add(r rpcDone) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == rpcLogChunk {
		l.chunks = append(l.chunks, make([]rpcDone, 0, rpcLogChunk))
		last++
	}
	l.chunks[last] = append(l.chunks[last], r)
}

// runRPC keeps Degree closed-loop request flows per host in flight until
// the deadline, recording every completion.
func runRPC(spec Spec, seed uint64, rep int, net harness.Net, out *runOut) {
	w := spec.Workload
	sizes := workload.FacebookWeb()
	if w.FlowSize > 0 {
		sizes = workload.NewSizeDist(map[int64]float64{w.FlowSize: 1})
	}
	gap := w.Gap
	if gap == 0 {
		gap = time.Millisecond
	}
	c := net.Cluster()
	recs := make([]rpcLog, c.Shards())
	// Completion callbacks run in the transport's DoneHost domain (receiver
	// for NDP/TCP-family, sender for pHost); buffer each record on that
	// host's shard so concurrent shards never share a slice. The recording
	// wrapper and its state live per connection slot, not per flow: a
	// slot's flows are strictly sequential (ClosedLoop.Start's contract),
	// so the fields are dead by the time the slot relaunches.
	type rpcSlot struct {
		start    sim.Time
		shard    int
		src, dst int
		inner    func(at sim.Time)
		onDone   func(at sim.Time)
	}
	var slots []rpcSlot
	cl := &workload.ClosedLoop{
		Hosts:         c.NumHosts(),
		Conns:         w.Degree,
		Gap:           simDur(gap),
		Sizes:         sizes,
		Seed:          seed + 7,
		NotifyLatency: c.MinPathDelay,
		Defer:         c.Defer,
		DoneHost:      net.DoneHost,
		Start: func(slot, src, dst int, size int64, done func(at sim.Time)) {
			sl := &slots[slot]
			if sl.onDone == nil {
				sl.onDone = func(at sim.Time) {
					recs[sl.shard].add(rpcDone{at: at, us: (at - sl.start).Micros(), src: sl.src, dst: sl.dst})
					sl.inner(at)
				}
			}
			sl.start = c.HostList()[src].EventList().Now()
			sl.shard = c.ShardOfHost(net.DoneHost(src, dst))
			sl.src, sl.dst = src, dst
			sl.inner = done
			net.StartFlow(src, dst, size, harness.StartOpts{OnDone: sl.onDone})
		},
	}
	slots = make([]rpcSlot, c.NumHosts()*w.Degree)
	cl.Run()
	deadline := spec.Deadline
	if deadline == 0 {
		deadline = 20 * time.Millisecond
	}
	runTo(spec, rep, net.Runner(), simDur(deadline), simDur(deadline))
	out.launched = int(cl.Launched())

	// Merge the per-shard completion buffers into one canonical order:
	// completion time, then receiver, then sender — a key identical for
	// every shard count (per-shard buffer order is only per-receiver-shard
	// FIFO, which a different partition would interleave differently).
	// The chunks are copied once, into a slice of exactly their size.
	var chunks [][]rpcDone
	for _, l := range recs {
		chunks = append(chunks, l.chunks...)
	}
	all := slices.Concat(chunks...)
	slices.SortStableFunc(all, func(a, b rpcDone) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	out.fcts = make([]float64, 0, len(all))
	for _, r := range all {
		out.fcts = append(out.fcts, r.us)
		out.completed++
		if r.at > out.last {
			out.last = r.at
		}
	}
}

// pathExcluder is the optional sender capability behind
// Metrics.PathsExcluded: NDP senders report how many paths their
// scoreboard (§3.2.3) currently excludes; other transports don't have one.
type pathExcluder interface {
	ExcludedPaths() int
}

// countExcludedPaths sums scoreboard exclusions over the flows that
// support them.
func countExcludedPaths(flows []harness.Flow) int {
	total := 0
	for _, f := range flows {
		if pe, ok := f.(pathExcluder); ok {
			total += pe.ExcludedPaths()
		}
	}
	return total
}

// fctDeadline returns the explicit deadline, or a generous multiple of the
// workload's ideal completion time.
func fctDeadline(explicit time.Duration, optimal sim.Time) sim.Time {
	if explicit > 0 {
		return simDur(explicit)
	}
	return optimal*20 + 500*sim.Millisecond
}

// collectFCTs folds per-flow completion times (zero = never finished) into
// the runOut in flow order, counting completions as it goes (callbacks
// write only their own flow's slot, so shards never share a counter).
func collectFCTs(out *runOut, done []sim.Time) {
	for _, at := range done {
		if at > 0 {
			out.fcts = append(out.fcts, at.Micros())
			out.completed++
			if at > out.last {
				out.last = at
			}
		}
	}
}

// merge folds the per-repetition outputs, in job order, into one Metrics.
func merge(spec Spec, outs []*runOut) *Metrics {
	m := &Metrics{
		Scenario:  spec.name,
		Transport: string(spec.Transport),
		Topology:  spec.Topology.String(),
		Workload:  spec.Workload.String(),
		Hosts:     spec.Topology.Hosts(),
		Seed:      spec.Seed,
		Repeats:   spec.Repeats,
	}
	var fcts, goodput stats.Dist
	var linkRate int64
	nFCT, nGoodput := 0, 0
	for _, o := range outs {
		nFCT += len(o.fcts)
		nGoodput += len(o.goodput)
	}
	m.FCTsUs = slices.Grow(m.FCTsUs, nFCT)
	m.GoodputGbps = slices.Grow(m.GoodputGbps, nGoodput)
	fcts.Grow(nFCT)
	goodput.Grow(nGoodput)
	for _, o := range outs {
		m.FlowsLaunched += o.launched
		m.FlowsCompleted += o.completed
		m.PathsExcluded += o.excluded
		m.Switch.Trims += o.counters.Trims
		m.Switch.Bounces += o.counters.Bounces
		m.Switch.Drops += o.counters.Drops
		m.Switch.Marks += o.counters.Marks
		m.FCTsUs = append(m.FCTsUs, o.fcts...)
		for _, v := range o.fcts {
			fcts.Add(v)
		}
		m.GoodputGbps = append(m.GoodputGbps, o.goodput...)
		for _, v := range o.goodput {
			goodput.Add(v)
		}
		if o.last.Millis() > m.LastCompletionMs {
			m.LastCompletionMs = o.last.Millis()
		}
		linkRate = o.linkRate
	}
	m.FCT = summarize(&fcts)
	if len(m.GoodputGbps) > 0 {
		m.Goodput = summarize(&goodput)
		var sum float64
		for _, g := range m.GoodputGbps {
			sum += g
		}
		m.UtilizationPct = 100 * sum / (float64(len(m.GoodputGbps)) * float64(linkRate) / 1e9)
		m.JainIndex = stats.JainIndex(m.GoodputGbps)
	}
	return m
}

// harnessTransport maps the Spec's transport and tuning knobs onto the
// internal Transport recipe.
func (s Spec) harnessTransport() harness.Transport {
	switch s.Transport {
	case TCP:
		return harness.PlainTCPTransport(s.MTU)
	case DCTCP:
		return harness.DCTCPTransport(s.MTU)
	case MPTCP:
		return harness.DefaultMPTCPTransport(s.MTU)
	case DCQCN:
		return harness.DCQCNTransport{MTU: s.MTU}
	case PHost:
		cfg := phost.DefaultConfig()
		cfg.MTU = s.MTU
		return harness.PHostTransport{Cfg: cfg}
	default: // NDP; Validate rejected anything else
		hcfg := core.DefaultConfig()
		hcfg.MTU = s.MTU
		hcfg.DisablePathPenalty = s.DisablePathPenalty
		return harness.NDPTransport{Switch: core.DefaultSwitchConfig(s.MTU), Host: hcfg}
	}
}

// runTo advances the runner to deadline. With a progress hook installed
// the advance is cut into progressSlices RunUntil segments, reporting the
// covered fraction of horizon (the run's final deadline) after each.
// Slicing is invisible to the simulation: event execution order is a pure
// function of timestamps and ord keys, never of RunUntil call boundaries
// — the clock merely parks at intermediate deadlines with no events in
// between, and the sharded runner's window horizons derive from pending
// event times, not from the requested deadline. Hooked and unhooked runs
// are therefore bit-identical, Metrics and engine stats both (pinned by
// TestProgressDoesNotPerturb).
func runTo(spec Spec, rep int, r sim.Runner, deadline, horizon sim.Time) {
	from := r.Now()
	if spec.progress == nil || deadline <= from {
		r.RunUntil(deadline)
		return
	}
	span := deadline - from
	for i := sim.Time(1); i <= progressSlices; i++ {
		t := from + span*i/progressSlices
		r.RunUntil(t)
		spec.progress(Progress{Repeat: rep, Repeats: spec.Repeats, Frac: float64(t) / float64(horizon)})
	}
}

// simDur converts a wall-clock duration to simulated time.
func simDur(d time.Duration) sim.Time {
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond
}
