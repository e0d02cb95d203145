package main

import (
	"fmt"
	"path/filepath"
	"time"

	"ndp"
	"ndp/scenario"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	// Seconds time-boxes the timed iterations: they repeat until the box is
	// used up and the workload's floor is reached (or twice the box is used
	// up). Zero means exactly Iters iterations (figures: Iters/5 passes, at
	// least one).
	Seconds float64
	Iters   int
	// Trace adds the traced iteration and the layer drivers after the timed
	// iterations, which then get 40% of the time box.
	Trace bool
	// DriversFrom names a result file of this set of runs that already holds
	// the layer drivers' numbers, which depend on no workload: -workload all
	// runs the drivers once and hands them on.
	DriversFrom string
	Sizes       sizes
	OutDir      string
}

// workloadResult is everything one run measured; result files carry it
// whole, so estimators can be re-derived offline from the raw samples.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Iters     int      `json:"iters"`
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the SHA-256 of json.Marshal(Metrics) (Spec workloads).
	Digest   string             `json:"digest,omitempty"`
	Events   int64              `json:"events,omitempty"`
	PktHops  int64              `json:"pkt_hops,omitempty"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	// Beside wall_ms (the fastest fifth, segment by segment): the fastest
	// fifth, the median and the inter-quartile range of the whole
	// iterations' wall time.
	WallWholeMs  float64 `json:"wall_whole_ms"`
	WallMedianMs float64 `json:"wall_median_ms"`
	WallIQRMs    float64 `json:"wall_iqr_ms"`
	// NoisePct is (median - fastest fifth) / fastest fifth of the whole
	// iterations; CalibMs the median of the calibration kernel's runs and
	// CalibDriftPct their range over their minimum.
	NoisePct      float64 `json:"noise_pct"`
	CalibMs       float64 `json:"calib_ms"`
	CalibDriftPct float64 `json:"calib_drift_pct"`
	// Unresolved marks a run on a machine too noisy to time a program:
	// noise_pct above 15 or the calibration kernel drifting by more than
	// 10% within the run.
	Unresolved bool `json:"unresolved"`

	// The samples, in order: every set-up in seconds, every timed iteration
	// in milliseconds and cut into its segments (figures: every experiment of
	// every pass, cut into its sweep jobs), the calibration kernel's runs,
	// and the allocation count and peak resident memory of every iteration.
	SetupSamplesS []float64              `json:"setup_samples_s"`
	WallSamplesMs []float64              `json:"wall_samples_ms"`
	SegmentsMs    [][]float64            `json:"segments_ms,omitempty"`
	ExpSegmentsMs map[string][][]float64 `json:"exp_segments_ms,omitempty"`
	CalibSamples  []float64              `json:"calib_samples_ms"`
	AllocSamples  []float64              `json:"alloc_samples"`
	PeakRSSMB     []float64              `json:"peak_rss_samples_mb"`
}

// checker counts checked operations. A failed check is counted, reported
// and never fatal: the run goes on and the result says how many failed.
type checker struct {
	ops, failed int
	failures    []string
}

// op records one operation and the problems its checks found.
func (c *checker) op(what string, problems []string) {
	c.ops++
	if len(problems) == 0 {
		return
	}
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, problems))
	}
}

// timeBox decides when the timed iterations stop.
type timeBox struct {
	start   time.Time
	seconds float64
	floor   int // iterations a time-boxed run never goes below
	iters   int // exact count when seconds == 0
}

func (b timeBox) more(done int) bool {
	if b.seconds <= 0 {
		return done < b.iters
	}
	elapsed := now().Sub(b.start).Seconds()
	if elapsed >= 2*b.seconds {
		// The floor yields once the loop has used twice its box: a machine
		// that slow would otherwise overrun the driver's cap on a whole set
		// of runs.
		return done < 1
	}
	return done < b.floor || elapsed < b.seconds
}

func newTimeBox(cfg runConfig, def workloadDef) timeBox {
	b := timeBox{start: now(), seconds: cfg.Seconds, floor: def.MinIters, iters: cfg.Iters}
	if def.Name == "figures" {
		b.iters = max(1, cfg.Iters/5)
	}
	if cfg.Trace {
		b.seconds *= 0.4
		b.floor = max(1, b.floor/3)
	}
	return b
}

// Thresholds beyond which a run's timings say more about the machine than
// about the program.
const (
	noisyNoisePct      = 15
	noisyCalibDriftPct = 10
)

// runWorkload runs one workload in this process: set-up (timed, repeated),
// the timed iterations with tracing off, then — under Trace — the traced
// iteration and the layer drivers. The calibration kernel runs before and
// after each part.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	def, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := &workloadResult{Workload: cfg.Workload, Seed: cfg.Seed, EndToEnd: map[string]float64{}}
	chk := &checker{}
	run := runSpec
	if cfg.Workload == "figures" {
		run = runFigures
	}
	calibMs() // a process that has just started runs the kernel slower than it ever will again
	res.CalibSamples = append(res.CalibSamples, calibMs())
	traced, err := run(cfg, def, res, chk)
	if err != nil {
		return nil, err
	}
	res.CalibSamples = append(res.CalibSamples, calibMs())

	res.Iters = len(res.WallSamplesMs)
	res.WallWholeMs = fastestFifth(res.WallSamplesMs)
	res.WallMedianMs = median(res.WallSamplesMs)
	res.WallIQRMs = iqr(res.WallSamplesMs)
	res.NoisePct = 100 * (res.WallMedianMs - res.WallWholeMs) / res.WallWholeMs
	res.CalibMs = median(res.CalibSamples)
	res.CalibDriftPct = 100 * (quantile(res.CalibSamples, 1) - quantile(res.CalibSamples, 0)) / quantile(res.CalibSamples, 0)
	res.Unresolved = res.NoisePct > noisyNoisePct || res.CalibDriftPct > noisyCalibDriftPct
	res.EndToEnd["setup_s"] = median(res.SetupSamplesS)
	res.EndToEnd["allocs_per_iter"] = median(res.AllocSamples)
	res.EndToEnd["peak_rss_mb"] = median(res.PeakRSSMB)
	if cfg.Trace {
		if err := traceLayers(cfg, res, chk, traced); err != nil {
			return nil, err
		}
		res.PerLayer["bench.iters"] = float64(res.Iters)
		res.PerLayer["bench.noise_pct"] = res.NoisePct
		res.PerLayer["bench.calib_ms"] = res.CalibMs
	}
	res.Ops, res.OpsFailed, res.Failures = chk.ops, chk.failed, chk.failures
	return res, nil
}

// traceInput is what the traced part of a run takes over from the timed
// part: the Spec to replay and what scenario.RunWithStats produced for it
// (left zero by figures, whose replay is checked against the transport
// table's run of the same Spec).
type traceInput struct {
	spec  scenario.Spec
	warm  output
	stats scenario.RunStats
}

// setupReps is how many times a Spec workload sets up; setup_s is the
// median. figures sets up once: its warm-up is a whole pass.
var setupReps = 5

// runSpec measures a Spec workload: one iteration is one
// scenario.RunWithStats(spec), one operation is one checked iteration.
func runSpec(cfg runConfig, def workloadDef, res *workloadResult, chk *checker) (traceInput, error) {
	// The sharded workload is checked against the digest the unsharded Spec
	// produces for this seed. That run is part of the check, not of the
	// set-up, and is not timed.
	var reference *output
	if cfg.Workload == "perm-ndp-shards2" {
		spec, err := specFor("perm-ndp", cfg.Sizes, cfg.Seed)
		if err != nil {
			return traceInput{}, err
		}
		m, _, err := scenario.RunWithStats(spec)
		if err != nil {
			return traceInput{}, fmt.Errorf("reference run: %w", err)
		}
		o, err := metricsOutput(m)
		if err != nil {
			return traceInput{}, err
		}
		reference = &o
	}

	// Set-up, repeated: the pinned outputs, the Spec, the warm-up iteration
	// and its check. The Spec carries the stopwatch as its progress hook,
	// which cuts every iteration into the same segments (16 per phase of the
	// run) without touching the simulation.
	var cut segments
	var spec scenario.Spec
	var pinned *output
	var warm output
	var stats scenario.RunStats
	for rep := 0; rep < setupReps; rep++ {
		t := now()
		exp, err := loadExpected()
		if err != nil {
			return traceInput{}, err
		}
		if o, ok := exp.Seeds[fmt.Sprint(cfg.Seed)].Specs[cfg.Workload]; ok && cfg.Sizes.pinnedSizes() {
			pinned = &o
		}
		if spec, err = specFor(cfg.Workload, cfg.Sizes, cfg.Seed); err != nil {
			return traceInput{}, err
		}
		spec = spec.With(scenario.WithProgress(func(scenario.Progress) { cut.mark() }))
		m, st, err := scenario.RunWithStats(spec)
		out, problems := checkSpecRun(cfg.Workload, m, st, err, nil, reference, pinned)
		chk.op(fmt.Sprintf("warm-up %d", rep), problems)
		warm, stats = out, st
		res.SetupSamplesS = append(res.SetupSamplesS, msSince(t)/1e3)
	}
	res.Digest, res.Events, res.PktHops = warm.Digest, stats.Events, stats.PacketHops
	res.CalibSamples = append(res.CalibSamples, calibMs())

	// Timed iterations, tracing off.
	var allocMB []float64
	for box := newTimeBox(cfg, def); box.more(len(res.WallSamplesMs)); {
		mallocs0, bytes0 := memCounters()
		resetPeakRSS()
		cut.marks = cut.marks[:0]
		t0 := now()
		m, st, err := scenario.RunWithStats(spec)
		t1 := now()
		mallocs1, bytes1 := memCountersNoGC()
		res.PeakRSSMB = append(res.PeakRSSMB, peakRSSMB())
		res.WallSamplesMs = append(res.WallSamplesMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		res.SegmentsMs = append(res.SegmentsMs, cut.cut(t0, t1))
		res.AllocSamples = append(res.AllocSamples, float64(mallocs1-mallocs0))
		allocMB = append(allocMB, float64(bytes1-bytes0)/(1<<20))
		_, problems := checkSpecRun(cfg.Workload, m, st, err, &warm, reference, pinned)
		chk.op(fmt.Sprintf("iteration %d", len(res.WallSamplesMs)), problems)
	}
	res.EndToEnd["wall_ms"] = fastestFifthBySegment(res.SegmentsMs)
	res.EndToEnd["alloc_mb_per_iter"] = median(allocMB)
	return traceInput{spec, warm, stats}, nil
}

// checkSpecRun checks one iteration's output and returns its fingerprint
// with whatever is wrong with it.
func checkSpecRun(workload string, m *scenario.Metrics, st scenario.RunStats, err error, warm, reference, pinned *output) (output, []string) {
	if err != nil {
		return output{}, []string{err.Error()}
	}
	out, err := metricsOutput(m)
	if err != nil {
		return output{}, []string{err.Error()}
	}
	var problems []string
	differs := func(what string, want *output) {
		if want != nil && out.Digest != want.Digest {
			problems = append(problems, fmt.Sprintf("Metrics differ from %s: %s", what, firstDifference(out, *want)))
		}
	}
	differs("the warm-up iteration", warm)
	differs("the unsharded run of this seed", reference)
	differs("expected.json", pinned)
	if st.PacketsLeaked != 0 {
		problems = append(problems, fmt.Sprintf("%d packets leaked", st.PacketsLeaked))
	}
	if m.FlowsLaunched == 0 {
		problems = append(problems, "no flows launched")
	}
	if workload == "rpc-churn" && float64(m.FlowsCompleted) < 0.999*float64(m.FlowsLaunched) {
		problems = append(problems, fmt.Sprintf("only %d of %d flows completed", m.FlowsCompleted, m.FlowsLaunched))
	}
	return out, problems
}

// pinnedSizes reports whether the sizes are the stated benchmark sizes, the
// only ones expected.json speaks for.
func (sz sizes) pinnedSizes() bool {
	d := defaultSizes()
	return sz.PermHosts == d.PermHosts && sz.RPCHosts == d.RPCHosts && sz.RPCDeadline == d.RPCDeadline
}

// runFigures measures the figures workload: one iteration is one pass over
// the experiments, one operation is one experiment of one pass.
func runFigures(cfg runConfig, def workloadDef, res *workloadResult, chk *checker) (traceInput, error) {
	t := now()
	exp, err := loadExpected()
	if err != nil {
		return traceInput{}, err
	}
	pinned := exp.Seeds[fmt.Sprint(cfg.Seed)].Experiments
	// The stopwatch is the experiments' progress hook: with one worker an
	// experiment's sweep jobs run one after another in a fixed order, so the
	// hook cuts every pass's run of it into the same segments.
	var cut segments
	opts := ndp.Options{Scale: figuresScale, Seed: cfg.Seed, Workers: 1, Progress: func(done, total int) { cut.mark() }}

	// one runs one experiment and checks it against the warm-up pass (nil
	// during the warm-up pass itself) and the pin.
	type sample struct {
		out            output
		segMs          []float64
		mallocs, bytes uint64
	}
	one := func(pass string, id string, warm map[string]output) sample {
		mallocs0, bytes0 := memCountersNoGC()
		cut.marks = cut.marks[:0]
		t0 := now()
		r, err := ndp.Run(id, opts)
		t1 := now()
		mallocs1, bytes1 := memCountersNoGC()
		var problems []string
		var out output
		if err != nil {
			problems = append(problems, err.Error())
		} else {
			out = resultOutput(r)
			if !hasNonEmptyTable(r) {
				problems = append(problems, "no non-empty table")
			}
			if w, ok := warm[id]; ok && w.Digest != out.Digest {
				problems = append(problems, "table differs from the warm-up pass: "+firstDifference(out, w))
			}
			if p, ok := pinned[id]; ok && p.Digest != out.Digest {
				problems = append(problems, "table differs from expected.json: "+firstDifference(out, p))
			}
		}
		chk.op(pass+" "+id, problems)
		return sample{out, cut.cut(t0, t1), mallocs1 - mallocs0, bytes1 - bytes0}
	}

	// Set-up: the pinned outputs and the warm-up pass, once (a pass is nine
	// seconds).
	warm := map[string]output{}
	for _, id := range cfg.Sizes.Experiments {
		warm[id] = one("warm-up", id, nil).out
	}
	res.SetupSamplesS = []float64{msSince(t) / 1e3}
	res.CalibSamples = append(res.CalibSamples, calibMs())

	res.ExpSegmentsMs = map[string][][]float64{}
	var allocMB []float64
	for box := newTimeBox(cfg, def); box.more(len(res.WallSamplesMs)); {
		memCounters() // one GC fence per pass; a user's pass has none inside
		resetPeakRSS()
		pass := fmt.Sprintf("pass %d", len(res.WallSamplesMs)+1)
		var wallMs float64
		var mallocs, bytes uint64
		for _, id := range cfg.Sizes.Experiments {
			s := one(pass, id, warm)
			res.ExpSegmentsMs[id] = append(res.ExpSegmentsMs[id], s.segMs)
			for _, ms := range s.segMs {
				wallMs += ms
			}
			mallocs += s.mallocs
			bytes += s.bytes
		}
		res.WallSamplesMs = append(res.WallSamplesMs, wallMs)
		res.PeakRSSMB = append(res.PeakRSSMB, peakRSSMB())
		res.AllocSamples = append(res.AllocSamples, float64(mallocs))
		allocMB = append(allocMB, float64(bytes)/(1<<20))
	}
	// The estimator is taken per sweep job of each experiment across the
	// passes, and summed over the 22.
	var wall float64
	for _, id := range cfg.Sizes.Experiments {
		wall += fastestFifthBySegment(res.ExpSegmentsMs[id])
	}
	res.EndToEnd["wall_ms"] = wall
	res.EndToEnd["alloc_mb_per_iter"] = median(allocMB)

	spec, err := specFor("figures", cfg.Sizes, cfg.Seed)
	return traceInput{spec: spec}, err
}

func hasNonEmptyTable(r *ndp.Result) bool {
	for _, t := range r.Tables {
		if t != nil && len(t.Rows) > 0 {
			return true
		}
	}
	return false
}

// traceLayers is the traced part of a run: the replayed iteration (at the
// workload's own shard count and at the other one), the transport table, the
// layer drivers and — for figures — one traced pass over the experiments. It
// fills res.PerLayer with every per-layer metric and writes the spans to
// out/trace-<workload>.json.
func traceLayers(cfg runConfig, res *workloadResult, chk *checker, in traceInput) error {
	spec, warm, stats := in.spec, in.warm, in.stats
	pl := map[string]float64{}
	res.PerLayer = pl
	for _, d := range perLayer() {
		pl[d.Name] = 0
	}
	tr := newTracer()
	figures := cfg.Workload == "figures"

	// The transport table comes first: for figures its NDP row is the
	// untraced reference the replay is checked against. The five baseline
	// transports do their work on figures only, so only figures runs their
	// rows; NDP's row is reported under the core layer on every workload.
	transports := []scenario.Transport{scenario.NDP}
	if figures {
		transports = scenario.Transports()
	}
	table, err := transportTable(cfg.Sizes, cfg.Seed, transports)
	if err != nil {
		return err
	}
	for t, row := range table {
		layer := string(t)
		if t == scenario.NDP {
			layer = "core"
		}
		pl[layer+".ns_per_hop"] = row.NsPerHop
		pl[layer+".events_per_hop"] = row.EventsPerHop
		pl[layer+".allocs_per_flow"] = row.AllocsPerFlow
	}
	wallMs := res.EndToEnd["wall_ms"]
	untracedMs := wallMs
	if figures {
		ndpRow := table[scenario.NDP]
		warm, stats, untracedMs = ndpRow.Output, ndpRow.Stats, ndpRow.WallMs
	}

	// The replay, at both shard counts.
	one, two := spec.With(scenario.WithShards(1)), spec.With(scenario.WithShards(2))
	unsharded, err := replay(tr, one)
	if err != nil {
		return err
	}
	sharded, err := replay(tr, two)
	if err != nil {
		return err
	}
	own, twin := unsharded, sharded
	if spec.Shards > 1 {
		own, twin = sharded, unsharded
	}
	var problems []string
	if own.Output.Digest != warm.Digest {
		problems = append(problems, "replayed Metrics differ from RunWithStats: "+firstDifference(own.Output, warm))
	}
	if own.Events != stats.Events || own.Hops != stats.PacketHops {
		problems = append(problems, fmt.Sprintf("replay executed %d events / %d hops, RunWithStats %d / %d",
			own.Events, own.Hops, stats.Events, stats.PacketHops))
	}
	if own.Leaked != 0 {
		problems = append(problems, fmt.Sprintf("replay leaked %d packets", own.Leaked))
	}
	chk.op("traced replay", problems)
	problems = nil
	if twin.Output.Digest != warm.Digest || twin.Hops != stats.PacketHops {
		problems = append(problems, "replay at the other shard count differs: "+firstDifference(twin.Output, warm))
	}
	chk.op("traced replay (other shard count)", problems)

	runNs := busyMs(tr.spans, own.Iter, "sim.run") * 1e6
	self := selfMsByName(tr.spans, own.Iter)
	events, hops := float64(own.Events), float64(own.Hops)
	pl["sim.events"] = events
	pl["sim.events_per_hop"] = div(events, hops)
	pl["sim.run_ms"] = runNs / 1e6
	pl["sim.ns_per_event"] = div(runNs, events)
	pl["sim.mhops_per_sec"] = div(hops, runNs/1e3)
	pl["sim.heap_depth_p50"] = median(own.HeapDepths)
	pl["sim.heap_depth_max"] = quantile(own.HeapDepths, 1)
	pl["fabric.pkt_hops"] = hops
	pl["fabric.trims"] = float64(own.Stats.Trims)
	pl["fabric.bounces"] = float64(own.Stats.Bounces)
	pl["fabric.drops"] = float64(own.Stats.Drops)
	pl["fabric.marks"] = float64(own.Stats.Marks)
	pl["fabric.leaked"] = float64(own.Leaked)
	pl["topo.build_ms"] = busyMs(tr.spans, own.Iter, "topo.build")
	pl["topo.collect_ms"] = busyMs(tr.spans, own.Iter, "topo.collect")
	pl["harness.build_ms"] = busyMs(tr.spans, own.Iter, "harness.build")
	pl["harness.close_ms"] = busyMs(tr.spans, own.Iter, "harness.close")
	pl["workload.generate_ms"] = self["workload.generate"]
	pl["workload.flows_launched"] = float64(own.Metrics.FlowsLaunched)
	var starts int64
	for _, s := range tr.spans {
		if s.Iter == own.Iter && s.Name == "harness.start" {
			starts += s.Count
		}
	}
	if starts > 0 {
		pl["harness.start_us_per_flow"] = busyMs(tr.spans, own.Iter, "harness.start") * 1e3 / float64(starts)
	}
	pl["harness.allocs_per_flow"] = div(float64(own.Mallocs), float64(own.Metrics.FlowsLaunched))
	pl["scenario.validate_us"] = busyMs(tr.spans, own.Iter, "scenario.validate") * 1e3
	pl["scenario.aggregate_ms"] = busyMs(tr.spans, own.Iter, "scenario.aggregate")
	var phasesMs float64
	for _, s := range tr.spans {
		if s.Iter == own.Iter && s.Parent >= 0 && tr.spans[s.Parent].Name == "iteration" {
			phasesMs += float64(s.BusyNs) / 1e6
		}
	}
	pl["scenario.overhead_ms"] = untracedMs - phasesMs
	pl["scenario.util_pct"] = own.Metrics.UtilizationPct
	if fct := own.Metrics.FCT; fct != nil {
		pl["scenario.fct_p50_us"], pl["scenario.fct_p99_us"] = fct.P50, fct.P99
	}
	pl["scenario.flows_completed"] = float64(own.Metrics.FlowsCompleted)

	pl["sim.shard.windows"] = float64(sharded.Windows)
	pl["sim.shard.events_per_window"] = div(float64(sharded.Events), float64(sharded.Windows))
	pl["sim.shard.exchange_ms"] = sharded.ExchangeMs
	var maxEv, sumEv float64
	for _, n := range sharded.ShardEvents {
		sumEv += float64(n)
		maxEv = max(maxEv, float64(n))
	}
	pl["sim.shard.imbalance_pct"] = 100 * (div(maxEv*float64(len(sharded.ShardEvents)), sumEv) - 1)
	pl["sim.shard.cpu_ms"] = sharded.CPUMs
	// The two replays are the like-for-like pair: one sample each, both warm
	// and both traced. -workload all prints the better-founded ratio of the
	// two workloads' wall_ms.
	pl["sim.shard.speedup"] = div(unsharded.WallMs, sharded.WallMs)

	tracedMs := own.WallMs
	if figures {
		// The traced iteration of figures is a pass over the experiments: a
		// span each. harness.exp_ms.<id> are the timed passes' own numbers
		// and sum to wall_ms; the other workloads run no experiment.
		tr.iter++
		pass := tr.begin("iteration")
		opts := ndp.Options{Scale: figuresScale, Seed: cfg.Seed, Workers: 1}
		for _, id := range cfg.Sizes.Experiments {
			s := tr.begin("harness.exp." + id)
			_, err := ndp.Run(id, opts)
			tr.end(s)
			if err != nil {
				return err
			}
			pl["harness.exp_ms."+id] = fastestFifthBySegment(res.ExpSegmentsMs[id])
		}
		tr.end(pass)
		tracedMs = float64(tr.spans[pass].BusyNs) / 1e6
	}

	if cfg.DriversFrom != "" {
		if err := copyDrivers(cfg.DriversFrom, pl); err != nil {
			return err
		}
	} else {
		runDrivers(pl)
	}

	ladderNs := events*pl["sim.heap_ns_per_op"] + hops*pl["fabric.port_hop_ns"]
	pl["core.residual_ns_per_hop"] = div(runNs-ladderNs, hops)
	pl["bench.ladder_explained_pct"] = 100 * div(ladderNs, runNs)
	pl["bench.trace_overhead_pct"] = 100 * (tracedMs - wallMs) / wallMs

	return writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json"), cfg.Workload, cfg.Seed, tr.spans)
}

// div is a/b, or 0 when there is nothing to divide by (a shrunk test run
// may execute no window at all); JSON has no Inf.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfMsByName sums self time by span name over one iteration.
func selfMsByName(spans []span, iter int) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfNs(spans) {
		if spans[i].Iter == iter {
			out[spans[i].Name] += float64(ns) / 1e6
		}
	}
	return out
}
