package main

import (
	"fmt"
	"sort"
	"time"

	"ndp/internal/core"
	"ndp/internal/harness"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
	"ndp/scenario"
)

// replaySlices is how many RunUntil calls the replay cuts the run phase
// into. Slicing is invisible to the simulation (event order is a function of
// timestamps and keys, never of RunUntil boundaries); each boundary is where
// the heap depth and the executed-event count are sampled.
const replaySlices = 16

// replayOut is what one traced replay observed, beside its spans.
type replayOut struct {
	Iter    int // the spans' iteration id
	Metrics *scenario.Metrics
	Output  output
	Events  int64
	Hops    int64
	Leaked  int64
	Stats   topo.SwitchStats

	WallMs     float64 // the whole iteration
	CPUMs      float64 // process CPU over the iteration
	HeapDepths []float64
	Mallocs    uint64 // allocations from workload generation to the end of the run phase

	// Sharded runs only.
	Windows     int64
	ExchangeMs  float64
	ShardEvents []uint64
}

// replay runs one iteration of an NDP Spec the way scenario.runOnce does,
// but step by step through the layers' public functions, with a span at
// each layer boundary. It must be the same program: the caller asserts that
// the Metrics digest, the event count and the hop count equal what
// scenario.RunWithStats reports for the Spec.
//
// Only what the benchmark's Specs use is replayed: the NDP transport on a
// (possibly oversubscribed) FatTree under an unbounded permutation, a
// closed-loop rpc or an incast, one repeat, no link failures.
func replay(tr *tracer, spec scenario.Spec) (out replayOut, err error) {
	if spec.Transport != scenario.NDP || spec.Topology.Kind != "fattree" || spec.Repeats != 1 || len(spec.Failures) > 0 {
		return out, fmt.Errorf("replay: unsupported Spec (%s on %s, repeats %d)", spec.Transport, spec.Topology, spec.Repeats)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("replay: %v", p)
		}
	}()
	tr.iter++
	out.Iter = tr.iter
	cpu0 := cpuTimeMs()
	root := tr.begin("iteration")
	t0 := now()

	s := tr.begin("scenario.validate")
	if err := scenario.Validate(spec); err != nil {
		return out, err
	}
	_ = spec.Hash()
	tr.end(s)

	seed := harness.SweepSeeds(spec.Seed, 1)[0]
	hcfg := core.DefaultConfig()
	hcfg.MTU = spec.MTU
	hcfg.DisablePathPenalty = spec.DisablePathPenalty
	transport := harness.NDPTransport{Switch: core.DefaultSwitchConfig(spec.MTU), Host: hcfg}
	inner := harness.FatTreeBuilder(spec.Topology.K)
	if spec.Topology.Oversub > 1 {
		inner = harness.OversubFatTreeBuilder(spec.Topology.K, spec.Topology.Oversub)
	}
	builder := func(c topo.Config) topo.Cluster {
		id := tr.begin("topo.build")
		defer tr.end(id)
		return inner(c)
	}

	s = tr.begin("harness.build")
	net := transport.Build(builder, topo.Config{Seed: seed, Shards: spec.Shards})
	tr.end(s)
	defer net.Close()

	c := net.Cluster()
	r := &runPhase{tr: tr, net: net, out: &out}
	if mr, ok := net.Runner().(*sim.MultiRunner); ok {
		r.mr = mr
		exchange := mr.Exchange
		mr.Exchange = func() {
			t := now()
			exchange()
			r.exchangeNs += now().Sub(t).Nanoseconds()
			r.exchanges++
		}
	}
	startFlow := func(src, dst int, size int64, opts harness.StartOpts) harness.Flow {
		if r.mr != nil && r.running {
			// Closed-loop restarts run on the shard goroutines, which
			// must not share the tracer; only the unsharded replay
			// times them.
			return net.StartFlow(src, dst, size, opts)
		}
		t := now()
		f := net.StartFlow(src, dst, size, opts)
		tr.call("harness.start", t, now())
		return f
	}

	ro := &runOutput{linkRate: c.LinkRate()}
	mallocs0, _ := memCountersNoGC()
	w := spec.Workload
	switch w.Kind {
	case "permutation":
		if w.FlowSize >= 0 {
			return out, fmt.Errorf("replay: sized permutations are not replayed")
		}
		s = tr.begin("workload.generate")
		dst := workload.Permutation(c.NumHosts(), sim.NewRand(seed))
		flows := make([]harness.Flow, len(dst))
		for src, d := range dst {
			flows[src] = startFlow(src, d, -1, harness.StartOpts{})
		}
		tr.end(s)
		ro.launched = len(dst)
		warm, window := simDur(spec.Warmup), simDur(spec.Window)
		warmSlices := int(int64(replaySlices) * int64(warm) / int64(warm+window))
		if warm > 0 && warmSlices < 1 {
			warmSlices = 1
		}
		r.runTo(warm, warmSlices, false)
		base := make([]int64, len(flows))
		for i, f := range flows {
			base[i] = f.AckedBytes()
		}
		r.runTo(warm+window, replaySlices-warmSlices, false)
		ro.goodput = make([]float64, len(flows))
		for i, f := range flows {
			ro.goodput[i] = stats.Gbps(f.AckedBytes()-base[i], window)
		}
		ro.excluded = excludedPaths(flows)

	case "incast":
		s = tr.begin("workload.generate")
		senders := workload.IncastSenders(w.Receiver, w.Degree, c.NumHosts())
		done := make([]sim.Time, len(senders))
		flows := make([]harness.Flow, len(senders))
		for i, src := range senders {
			i := i
			flows[i] = startFlow(src, w.Receiver, w.FlowSize, harness.StartOpts{
				Priority: w.PrioritizeLast && i == len(senders)-1,
				OnDone:   func(at sim.Time) { done[i] = at },
			})
		}
		tr.end(s)
		ro.launched = len(senders)
		deadline := simDur(spec.Deadline)
		if spec.Deadline <= 0 {
			optimal := sim.FromSeconds(float64(w.Degree) * float64(w.FlowSize) * 8 / float64(ro.linkRate))
			deadline = optimal*20 + 500*sim.Millisecond
		}
		r.runTo(deadline, replaySlices, true)
		for _, at := range done {
			if at > 0 {
				ro.fcts = append(ro.fcts, at.Micros())
				ro.completed++
				if at > ro.last {
					ro.last = at
				}
			}
		}
		ro.excluded = excludedPaths(flows)

	case "rpc":
		r.rpc(spec, seed, startFlow, ro)

	default:
		return out, fmt.Errorf("replay: workload %q is not replayed", w.Kind)
	}
	mallocs1, _ := memCountersNoGC()
	out.Mallocs = mallocs1 - mallocs0

	s = tr.begin("topo.collect")
	out.Stats = c.CollectStats()
	out.Events = int64(net.Runner().Executed())
	out.Hops = c.PacketHops()
	tr.end(s)

	if r.mr != nil {
		// Every RunUntil drains the mailboxes once before its first window.
		out.Windows = r.exchanges - r.runUntilCalls
		out.ExchangeMs = float64(r.exchangeNs) / 1e6
		for _, el := range r.mr.Lists {
			out.ShardEvents = append(out.ShardEvents, el.Executed())
		}
	}

	s = tr.begin("harness.close")
	net.Close()
	out.Leaked = c.PacketsInUse()
	tr.end(s)

	s = tr.begin("scenario.aggregate")
	out.Metrics = ro.metrics(spec, out.Stats)
	out.Output, err = metricsOutput(out.Metrics)
	tr.end(s)

	tr.count("events", out.Events)
	tr.count("pkt_hops", out.Hops)
	tr.count("flows_launched", int64(ro.launched))
	tr.end(root)
	out.WallMs = msSince(t0)
	out.CPUMs = cpuTimeMs() - cpu0
	return out, err
}

// runPhase drives the engine in slices and samples it at each boundary.
type runPhase struct {
	tr  *tracer
	net harness.Net
	out *replayOut
	mr  *sim.MultiRunner // nil when unsharded

	running                              bool // inside RunUntil
	exchanges, exchangeNs, runUntilCalls int64
}

// runTo advances the runner to deadline in n RunUntil calls (at least one),
// all under one sim.run span with a sim.slice child each. Slices are equal
// shares of simulated time, or — frontLoaded — each twice the one before: an
// incast is over within the first percent of its generous deadline, and
// equal slices would all but one sample an empty heap.
func (r *runPhase) runTo(deadline sim.Time, n int, frontLoaded bool) {
	if n < 1 {
		n = 1
	}
	runner := r.net.Runner()
	from := runner.Now()
	phase := r.tr.begin("sim.run")
	for i := 1; i <= n; i++ {
		to := from + (deadline-from)*sim.Time(i)/sim.Time(n)
		if frontLoaded {
			to = from + (deadline-from)>>(n-i)
		}
		s := r.tr.begin("sim.slice")
		before := runner.Executed()
		r.running = true
		runner.RunUntil(to)
		r.running = false
		r.runUntilCalls++
		depth := r.heapDepth()
		if depth > 0 { // an idle engine has no depth to report
			r.out.HeapDepths = append(r.out.HeapDepths, float64(depth))
		}
		r.tr.count("events", int64(runner.Executed()-before))
		r.tr.count("heap_depth", int64(depth))
		r.tr.end(s)
	}
	r.tr.end(phase)
}

// heapDepth is the number of pending events, summed over shards.
func (r *runPhase) heapDepth() int {
	if r.mr == nil {
		return r.net.EL().Len()
	}
	n := 0
	for _, el := range r.mr.Lists {
		n += el.Len()
	}
	return n
}

// rpcDone is one closed-loop completion (scenario.runRPC's record).
type rpcDone struct {
	at       sim.Time
	us       float64
	src, dst int
}

// rpc replays scenario.runRPC: Degree closed-loop connections per host until
// the deadline, completions buffered per shard and merged in a canonical
// order.
func (r *runPhase) rpc(spec scenario.Spec, seed uint64, startFlow func(src, dst int, size int64, opts harness.StartOpts) harness.Flow, ro *runOutput) {
	w := spec.Workload
	c := r.net.Cluster()
	gen := r.tr.begin("workload.generate")
	sizes := workload.FacebookWeb()
	if w.FlowSize > 0 {
		sizes = workload.NewSizeDist(map[int64]float64{w.FlowSize: 1})
	}
	gap := w.Gap
	if gap == 0 {
		gap = time.Millisecond
	}
	recs := make([][]rpcDone, c.Shards())
	type rpcSlot struct {
		start    sim.Time
		shard    int
		src, dst int
		inner    func(at sim.Time)
		onDone   func(at sim.Time)
	}
	slots := make([]rpcSlot, c.NumHosts()*w.Degree)
	cl := &workload.ClosedLoop{
		Hosts:         c.NumHosts(),
		Conns:         w.Degree,
		Gap:           simDur(gap),
		Sizes:         sizes,
		Seed:          seed + 7,
		NotifyLatency: c.MinPathDelay,
		Defer:         c.Defer,
		DoneHost:      r.net.DoneHost,
		Start: func(slot, src, dst int, size int64, done func(at sim.Time)) {
			sl := &slots[slot]
			if sl.onDone == nil {
				sl.onDone = func(at sim.Time) {
					recs[sl.shard] = append(recs[sl.shard], rpcDone{at: at, us: (at - sl.start).Micros(), src: sl.src, dst: sl.dst})
					sl.inner(at)
				}
			}
			sl.start = c.HostList()[src].EventList().Now()
			sl.shard = c.ShardOfHost(r.net.DoneHost(src, dst))
			sl.src, sl.dst = src, dst
			sl.inner = done
			startFlow(src, dst, size, harness.StartOpts{OnDone: sl.onDone})
		},
	}
	cl.Run()
	r.tr.end(gen)

	deadline := spec.Deadline
	if deadline == 0 {
		deadline = 20 * time.Millisecond
	}
	r.runTo(simDur(deadline), replaySlices, false)
	ro.launched = int(cl.Launched())

	merge := r.tr.begin("scenario.aggregate")
	var all []rpcDone
	for _, rec := range recs {
		all = append(all, rec...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		if all[i].dst != all[j].dst {
			return all[i].dst < all[j].dst
		}
		return all[i].src < all[j].src
	})
	for _, d := range all {
		ro.fcts = append(ro.fcts, d.us)
		ro.completed++
		if d.at > ro.last {
			ro.last = d.at
		}
	}
	r.tr.end(merge)
}

// runOutput is one repetition's raw contribution to the Metrics
// (scenario.runOut's fields).
type runOutput struct {
	fcts      []float64
	goodput   []float64
	launched  int
	completed int
	excluded  int
	last      sim.Time
	linkRate  int64
}

// excludedPaths sums the NDP senders' scoreboard exclusions
// (Metrics.PathsExcluded).
func excludedPaths(flows []harness.Flow) int {
	total := 0
	for _, f := range flows {
		if pe, ok := f.(interface{ ExcludedPaths() int }); ok {
			total += pe.ExcludedPaths()
		}
	}
	return total
}

// metrics folds the run's output into a Metrics document the way
// scenario.merge does for one repeat.
func (ro *runOutput) metrics(spec scenario.Spec, sw topo.SwitchStats) *scenario.Metrics {
	m := &scenario.Metrics{
		Scenario:       spec.Name(),
		Transport:      string(spec.Transport),
		Topology:       spec.Topology.String(),
		Workload:       spec.Workload.String(),
		Hosts:          spec.Topology.Hosts(),
		Seed:           spec.Seed,
		Repeats:        spec.Repeats,
		FlowsLaunched:  ro.launched,
		FlowsCompleted: ro.completed,
		PathsExcluded:  ro.excluded,
		FCTsUs:         ro.fcts,
		GoodputGbps:    ro.goodput,
		Switch:         scenario.Counters{Trims: sw.Trims, Bounces: sw.Bounces, Drops: sw.Drops, Marks: sw.Marks},
	}
	if ro.last.Millis() > 0 {
		m.LastCompletionMs = ro.last.Millis()
	}
	var fcts, goodput stats.Dist
	for _, v := range ro.fcts {
		fcts.Add(v)
	}
	for _, v := range ro.goodput {
		goodput.Add(v)
	}
	m.FCT = summarize(&fcts)
	if len(ro.goodput) > 0 {
		m.Goodput = summarize(&goodput)
		var sum float64
		for _, g := range ro.goodput {
			sum += g
		}
		m.UtilizationPct = 100 * sum / (float64(len(ro.goodput)) * float64(ro.linkRate) / 1e9)
		m.JainIndex = stats.JainIndex(ro.goodput)
	}
	return m
}

func summarize(d *stats.Dist) *scenario.Summary {
	if d.N() == 0 {
		return nil
	}
	return &scenario.Summary{N: d.N(), Min: d.Min(), P10: d.Quantile(0.1), P50: d.Median(),
		P90: d.Quantile(0.9), P99: d.Quantile(0.99), Max: d.Max(), Mean: d.Mean()}
}

// simDur converts a wall-clock duration to simulated time.
func simDur(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }
