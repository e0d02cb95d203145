package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"ndp/internal/harness"
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
// Metrics are pinned bit-for-bit by the golden regression suite. Every field
// is deterministic for a Spec and seed, on any machine and any worker count;
// Events, SerEndEvents, ArenaPeak, Queue and Windows depend on the shard
// layout, the rest does not. This is the one block every reader gets:
// `ndpsim -scenario` and `-bench` print it (String), BENCH_*.json and the
// daemon's job document store it (the JSON tags).
type RunStats struct {
	// Events is the total scheduler events executed across repeats.
	Events int64 `json:"events"`
	// SerEndEvents is how many of them were serialization ends of a port.
	// Switch ports whose link stays inside one shard serialize on demand and
	// fire none, so this — and with it Events — depends on the shard layout;
	// Events - SerEndEvents does not.
	SerEndEvents int64 `json:"ser_end_events"`
	// CommandEvents is how many deferred commands (topo.Cluster.Defer:
	// a flow's attach and release, closed-loop hop-backs and gaps)
	// the hosts emitted — each one event of Events once its time has come,
	// so the few emitted within a path delay or a gap of the deadline are
	// counted here and not there. The same for every shard layout.
	CommandEvents int64 `json:"command_events"`
	// PacketHops is the total packet wire-traversals across repeats.
	PacketHops int64 `json:"packet_hops"`
	// PacketsLeaked is the arena leak counter summed across repeats: packets
	// still outstanding after each network's Close released everything the
	// fabric and endpoints held. Always zero unless a component lost track
	// of a packet; the golden suite asserts it.
	PacketsLeaked int64 `json:"packets_leaked"`
	// ArenaPeak is the most packets one packet arena held at once: for a
	// sharded run the fullest shard's, counting packets it adopted from
	// other shards; across repeats, the largest of their peaks. A closed
	// network's arena keeps the chunks its own peak needed for the next
	// network (topo.Network.Close).
	ArenaPeak int64 `json:"arena_peak"`
	// Queue is what the scheduler's two tiers did, summed over the run's
	// event lists. A wheel share that falls, or heap pushes that move from
	// "beyond_span" to "active_bucket" or "sparse", say a workload has left
	// the near-future regime the wheel serves.
	Queue sim.QueueStats `json:"queue"`
	// Windows is what the sharded runner's windows did: windows run, windows
	// with a single busy shard, events per shard, and the events on the
	// windows' critical path (a share of 1/shards is ideal; its inverse caps
	// the speedup). Zero for a run on one event list.
	Windows sim.WindowStats `json:"windows,omitzero"`
}

// Add accumulates another run's (or repetition's) observables: sums, and
// maxima for the peaks.
func (s *RunStats) Add(o RunStats) {
	s.Events += o.Events
	s.SerEndEvents += o.SerEndEvents
	s.CommandEvents += o.CommandEvents
	s.PacketHops += o.PacketHops
	s.PacketsLeaked += o.PacketsLeaked
	s.ArenaPeak = max(s.ArenaPeak, o.ArenaPeak)
	s.Queue.Add(o.Queue)
	s.Windows.Add(o.Windows)
}

// String renders the block for terminals: one `engine:` line, the
// scheduler's tiers, and — for a sharded run only — the windows. ev/hop is
// events per packet hop: a dense unsharded NDP run sits near 1.2, and a
// sharded run's is higher than its unsharded twin's by the serialization
// ends its cut ports keep.
func (s RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: events=%d ser_end_events=%d command_events=%d pkt_hops=%d ev/hop=%.2f leaked=%d arena_peak=%d\n",
		s.Events, s.SerEndEvents, s.CommandEvents, s.PacketHops,
		float64(s.Events)/float64(max(s.PacketHops, 1)), s.PacketsLeaked, s.ArenaPeak)
	q := s.Queue
	fmt.Fprintf(&b, "        queue: wheel_share=%.3f mean_run=%.1f max_run=%d peak_pending=%d heap_pushes=%d (beyond_span %d, active_bucket %d, sparse %d)\n",
		q.WheelShare(), q.MeanRun(), q.MaxRun, q.PeakPending,
		q.HeapBeyondSpan+q.HeapActiveBucket+q.HeapSparse,
		q.HeapBeyondSpan, q.HeapActiveBucket, q.HeapSparse)
	if w := s.Windows; w.Windows > 0 {
		fmt.Fprintf(&b, "        windows=%d single_busy=%d critical_share=%.3f shard_events=%v\n",
			w.Windows, w.SingleBusy, w.CriticalShare(), w.Events)
	}
	return b.String()
}

// RunWithStats is Run plus the engine observables.
func RunWithStats(spec Spec) (m *Metrics, stats RunStats, err error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, RunStats{}, err
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
			m, stats, err = nil, RunStats{}, fmt.Errorf("scenario: run failed: %v", p)
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
		stats.Add(o.stats)
	}
	return merge(spec, outs), stats, nil
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
	stats     RunStats
}

// runOnce builds the network for one derived seed and drives the workload.
// Everything inside derives from the seed alone, which is what lets the
// job pool schedule repetitions on any worker without perturbing results —
// and, with Shards > 1, lets the windowed multi-list runner advance the
// partitions in parallel without perturbing them either.
func runOnce(spec Spec, seed uint64, rep int) *runOut {
	return runOn(spec, seed, rep, spec.build(seed))
}

// build builds the Spec's network for one derived seed.
func (s Spec) build(seed uint64) harness.Net {
	return s.harnessTransport().Build(s.Topology.builder(), topo.Config{Seed: seed, Shards: s.Shards})
}

// runOn drives the workload on net, built by build for the same seed, and
// closes it.
func runOn(spec Spec, seed uint64, rep int, net harness.Net) *runOut {
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
	out.stats = RunStats{
		Events:        int64(net.Runner().Executed()),
		SerEndEvents:  net.Cluster().SerEndEvents(),
		CommandEvents: net.Cluster().CommandEvents(),
		PacketHops:    net.Cluster().PacketHops(),
		ArenaPeak:     net.Cluster().ArenaPeak(),
		Queue:         net.Runner().QueueStats(),
	}
	if mr, ok := net.Runner().(*sim.MultiRunner); ok {
		out.stats.Windows = mr.WindowStats()
	}
	// Close releases every packet the fabric and endpoints still hold;
	// whatever the arenas then report outstanding has truly been lost. The
	// lists may serve another network after it, so everything read from
	// them is read above.
	net.Close()
	out.stats.PacketsLeaked = net.Cluster().PacketsInUse()
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
// contend and the merged result is independent of the shard layout. Host
// ids are int32, as everywhere in the fabric: a record is 24 bytes.
type rpcDone struct {
	at       sim.Time
	us       float64
	src, dst int32
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

// len returns the number of records logged.
func (l *rpcLog) len() int {
	if len(l.chunks) == 0 {
		return 0
	}
	return (len(l.chunks)-1)*rpcLogChunk + len(l.chunks[len(l.chunks)-1])
}

// get returns record i in logging order.
func (l *rpcLog) get(i int) *rpcDone { return &l.chunks[i/rpcLogChunk][i%rpcLogChunk] }

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
		src, dst int32
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
			sl.src, sl.dst = int32(src), int32(dst)
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

	// Merge the per-shard completion logs into one canonical order:
	// completion time, then receiver, then sender — a key identical for
	// every shard count (per-shard log order is only per-receiver-shard
	// FIFO, which a different partition would interleave differently). A
	// shard records completions as its clock advances, so each log is in
	// time order already: merging by time, ties to the lower shard, yields
	// the order a stable sort of the logs' concatenation by time would, and
	// only each equal-time group still needs a stable sort by (dst, src).
	n := 0
	for i := range recs {
		n += recs[i].len()
	}
	out.fcts = make([]float64, 0, n)
	next := make([]int, len(recs))
	var group []rpcDone // the merged records completing at group[0].at
	for range n {
		best := -1
		for s := range recs {
			if next[s] < recs[s].len() && (best < 0 || recs[s].get(next[s]).at < recs[best].get(next[best]).at) {
				best = s
			}
		}
		r := *recs[best].get(next[best])
		next[best]++
		if len(group) > 0 && r.at != group[0].at {
			if r.at < group[0].at {
				panic("scenario: a shard's completion log is out of time order")
			}
			out.fcts = appendByReceiver(out.fcts, group)
			group = group[:0]
		}
		group = append(group, r)
	}
	out.fcts = appendByReceiver(out.fcts, group)
	out.completed = n
	if len(group) > 0 {
		out.last = group[0].at
	}
}

// appendByReceiver appends the FCTs of one equal-time group of completions
// in (receiver, sender) order, stable on ties.
func appendByReceiver(fcts []float64, group []rpcDone) []float64 {
	slices.SortStableFunc(group, func(a, b rpcDone) int {
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	})
	for _, r := range group {
		fcts = append(fcts, r.us)
	}
	return fcts
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
// The first repetition's FCT and goodput slices become the Metrics' own, and
// the others' are appended to them; the distributions keep sorted copies.
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
	if nFCT > 0 {
		m.FCTsUs = slices.Grow(outs[0].fcts, nFCT-len(outs[0].fcts))
	}
	if nGoodput > 0 {
		m.GoodputGbps = slices.Grow(outs[0].goodput, nGoodput-len(outs[0].goodput))
	}
	fcts.Grow(nFCT)
	goodput.Grow(nGoodput)
	for i, o := range outs {
		m.FlowsLaunched += o.launched
		m.FlowsCompleted += o.completed
		m.PathsExcluded += o.excluded
		m.Switch.Trims += o.counters.Trims
		m.Switch.Bounces += o.counters.Bounces
		m.Switch.Drops += o.counters.Drops
		m.Switch.Marks += o.counters.Marks
		if i > 0 {
			m.FCTsUs = append(m.FCTsUs, o.fcts...)
			m.GoodputGbps = append(m.GoodputGbps, o.goodput...)
		}
		for _, v := range o.fcts {
			fcts.Add(v)
		}
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
// internal Transport recipe: the paper's, plus the path-penalty ablation.
func (s Spec) harnessTransport() harness.Transport {
	t := harness.PaperTransport(string(s.Transport), s.MTU)
	if ndp, ok := t.(harness.NDPTransport); ok {
		ndp.Host.DisablePathPenalty = s.DisablePathPenalty
		return ndp
	}
	return t
}

// runTo advances the runner to deadline. With a progress hook installed
// the advance is cut into progressSlices RunUntil segments, reporting the
// covered fraction of horizon (the run's final deadline) after each.
// Slicing is invisible to the simulation: event execution order is a pure
// function of timestamps and ord keys, never of RunUntil call boundaries
// — the clock merely parks at intermediate deadlines with no events in
// between, and the sharded runner's window horizons derive from pending
// event times, not from the requested deadline. Hooked and unhooked runs
// are therefore bit-identical, Metrics and RunStats both — bar a sharded
// run's Queue and Windows, which count where windows ended, and a slice
// boundary ends one early (pinned by TestProgressDoesNotPerturb).
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
