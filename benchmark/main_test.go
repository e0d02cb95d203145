package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ndp/scenario"
)

// shrunk makes every workload small enough that the whole file runs in a
// few seconds: 16-host FatTrees, one experiment per figures pass, one set-up,
// millisecond driver repetitions.
func shrunk(t *testing.T) sizes {
	t.Helper()
	rep, ops, setups := driverRep, calibOps, setupReps
	driverRep, calibOps, setupReps = time.Millisecond, 2_000, 1
	t.Cleanup(func() { driverRep, calibOps, setupReps = rep, ops, setups })
	return sizes{PermHosts: 16, RPCHosts: 16, RPCDeadline: 20 * time.Millisecond,
		IncastHosts: 16, IncastDegree: 8, Experiments: []string{"fig16"}}
}

// TestWorkloadsPassTheirChecks runs every workload for one timed iteration
// with tracing on. ops_failed == 0 covers the output checks of the warm-up
// and timed iterations and the replay assertions: the traced replay, at one
// shard and at two, reproduces the Metrics digest, the event count and the
// hop count of scenario.RunWithStats (perm-ndp, perm-ndp-shards2,
// rpc-churn, and the incast figures replays).
func TestWorkloadsPassTheirChecks(t *testing.T) {
	sz := shrunk(t)
	names := map[string]bool{}
	for _, d := range perLayer() {
		names[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(runConfig{Workload: w.Name, Seed: 3, Iters: 1, Trace: true, Sizes: sz, OutDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.OpsFailed != 0 || res.Ops == 0 {
				t.Fatalf("ops %d, ops_failed %d: %v", res.Ops, res.OpsFailed, res.Failures)
			}
			if res.Iters != 1 {
				t.Errorf("ran %d timed iterations, want 1", res.Iters)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			if len(res.PerLayer) != len(names) {
				t.Errorf("%d per-layer metrics reported, catalogue has %d", len(res.PerLayer), len(names))
			}
			for name, v := range res.PerLayer {
				if !names[name] {
					t.Errorf("per-layer metric %s is not in the catalogue", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", name, v)
				}
			}
			positive := []string{"sim.events", "sim.run_ms", "sim.shard.windows", "fabric.pkt_hops", "sim.heap_ns_per_op", "core.ns_per_hop"}
			if w.Name == "figures" {
				positive = append(positive, "harness.exp_ms.fig16", "tcp.ns_per_hop", "phost.allocs_per_flow")
			}
			for _, name := range positive {
				if !(res.PerLayer[name] > 0) {
					t.Errorf("per-layer metric %s = %v, want > 0", name, res.PerLayer[name])
				}
			}
			if len(res.SegmentsMs)+len(res.ExpSegmentsMs) == 0 {
				t.Error("the timed iterations were not cut into segments")
			}
			for _, segs := range res.SegmentsMs {
				if len(segs) < 16 {
					t.Errorf("an iteration was cut into %d segments, want the progress hook's 16 per phase", len(segs))
				}
			}
		})
	}
}

// TestReplayDetectsADifferentProgram turns the replay assertion around: a
// replay of a different seed must not pass for the Spec's RunWithStats.
func TestReplayDetectsADifferentProgram(t *testing.T) {
	sz := shrunk(t)
	spec, err := specFor("rpc-churn", sz, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, st, err := scenario.RunWithStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metricsOutput(m)
	if err != nil {
		t.Fatal(err)
	}
	same, err := replay(newTracer(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if same.Output.Digest != want.Digest || same.Events != st.Events || same.Hops != st.PacketHops {
		t.Fatalf("replay of the same Spec: %d events / %d hops, RunWithStats %d / %d", same.Events, same.Hops, st.Events, st.PacketHops)
	}
	other, err := replay(newTracer(), spec.With(scenario.WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	if other.Output.Digest == want.Digest {
		t.Fatal("replay of another seed produced the same digest")
	}
	if diff := firstDifference(other.Output, want); !strings.Contains(diff, "seed") {
		t.Errorf("first difference = %q, want the seed field", diff)
	}
}

func TestFastestFifth(t *testing.T) {
	cases := []struct {
		samples []float64
		want    float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 3, 5}, 3}, // n/5 < 1: the minimum
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 1.5},                    // fastest 2 of 10
		{append(make([]float64, 0), 5, 5, 5, 5, 5, 100, 100, 100, 100), 5}, // 9 samples: fastest 1
	}
	for _, c := range cases {
		if got := fastestFifth(c.samples); got != c.want {
			t.Errorf("fastestFifth(%v) = %v, want %v", c.samples, got, c.want)
		}
	}
	// Interference only adds time: spoiling the slow four fifths of the
	// samples must not move the estimate.
	quiet := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	noisy := []float64{100, 101, 160, 170, 180, 190, 150, 140, 130, 120}
	if fastestFifth(quiet) != fastestFifth(noisy) {
		t.Errorf("estimate moved with the slow tail: %v vs %v", fastestFifth(quiet), fastestFifth(noisy))
	}
	// Segment by segment: an iteration spoiled in one segment and another
	// spoiled in the other still yield the quiet total.
	runs := [][]float64{{10, 90}, {30, 30}, {30, 30}, {30, 30}, {90, 20}}
	if got := fastestFifthBySegment(runs); got != 30 {
		t.Errorf("fastestFifthBySegment = %v, want 10+20", got)
	}
	if got := fastestFifth(totals(runs)); got != 60 {
		t.Errorf("fastestFifth of the totals = %v, want 60", got)
	}
	if got := fastestFifthBySegment([][]float64{{1, 2}, {4}}); got != 3 {
		t.Errorf("unequal cuts: fastestFifthBySegment = %v, want the fastest total, 3", got)
	}
	var cut segments
	t0 := now()
	cut.marks = []time.Time{t0.Add(2 * time.Millisecond), t0.Add(5 * time.Millisecond)}
	if got := cut.cut(t0, t0.Add(9*time.Millisecond)); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("cut = %v, want [2 3 4]", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := iqr([]float64{1, 2, 3, 4, 5}); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "iteration", BusyNs: 1000, Count: 1},
		{ID: 1, Parent: 0, Name: "harness.build", BusyNs: 300, Count: 1},
		{ID: 2, Parent: 1, Name: "topo.build", BusyNs: 200, Count: 1},
		{ID: 3, Parent: 0, Name: "sim.run", BusyNs: 600, Count: 1},
		// An aggregate: 40 calls, 50 ns busy in all, spread over the run.
		{ID: 4, Parent: 3, Name: "harness.start", StartNs: 10, EndNs: 590, BusyNs: 50, Count: 40},
	}
	want := []int64{100, 100, 200, 550, 50}
	for i, got := range selfNs(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}

	tr := newTracer()
	tr.iter = 1
	root := tr.begin("iteration")
	run := tr.begin("sim.run")
	t0 := now()
	tr.call("harness.start", t0, t0.Add(30))
	tr.call("harness.start", t0.Add(100), t0.Add(120))
	tr.count("events", 5)
	tr.end(run)
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3 (two calls fold into one aggregate)", len(tr.spans))
	}
	agg := tr.spans[2]
	if agg.Parent != run || agg.Count != 2 || agg.BusyNs != 50 || agg.EndNs-agg.StartNs != 120 {
		t.Errorf("aggregate span = %+v", agg)
	}
	if tr.spans[run].Counts["events"] != 5 {
		t.Errorf("counter landed on %+v", tr.spans)
	}
	if busyMs(tr.spans, 1, "harness.start") != 50e-6 {
		t.Errorf("busyMs = %v", busyMs(tr.spans, 1, "harness.start"))
	}
}

func TestAgreeVerdicts(t *testing.T) {
	wall, allocs := endToEnd[1], endToEnd[2]
	if wall.Name != "wall_ms" || allocs.Name != "allocs_per_iter" {
		t.Fatal("catalogue order changed; fix the indices")
	}
	cases := []struct {
		d     metricDef
		a, b  float64
		noisy bool
		want  verdict
	}{
		{wall, 100, 100 * (1 + wall.Bound - 0.01), false, ok},
		{wall, 100, 80, false, ok}, // better is never a problem
		{wall, 100, 100 * (1 + wall.Bound + 0.01), false, exceeds},
		{wall, 100, 100 * (1 + wall.Bound + 0.01), true, unresolved}, // a noisy machine cannot convict a timing
		{allocs, 1000, 1005, false, ok},
		{allocs, 1000, 1020, true, exceeds}, // counts are not excused by noise
		{metricDef{Name: "x", Better: "higher", Bound: 0.1}, 100, 85, false, exceeds},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b, c.noisy); got != c.want {
			t.Errorf("judge(%s, %v -> %v, noisy=%v) = %s, want %s", c.d.Name, c.a, c.b, c.noisy, got, c.want)
		}
	}

	quiet, drifted, marked := &workloadResult{CalibMs: 12}, &workloadResult{CalibMs: 13.5}, &workloadResult{CalibMs: 12, Unresolved: true}
	if noisyPair(quiet, quiet) || !noisyPair(quiet, drifted) || !noisyPair(drifted, quiet) || !noisyPair(quiet, marked) {
		t.Error("noisyPair: a pair is noisy when either run is UNRESOLVED or the calibration kernel ran more than 10% apart")
	}

	dir := t.TempDir()
	result := func(label string, wallMs float64, failed int) string {
		e2e := map[string]float64{"setup_s": 1, "wall_ms": wallMs, "allocs_per_iter": 10, "alloc_mb_per_iter": 1, "peak_rss_mb": 30}
		if err := writeResult(dir, label, 1, []*workloadResult{{Workload: "perm-ndp", EndToEnd: e2e, OpsFailed: failed}}); err != nil {
			t.Fatal(err)
		}
		return resultPath(dir, label)
	}
	base, same, slow, broken := result("a", 100, 0), result("b", 104, 0), result("c", 140, 0), result("d", 100, 1)
	for _, c := range []struct {
		b    string
		want bool
	}{{same, false}, {slow, true}, {broken, true}} {
		var out bytes.Buffer
		got, err := agree(&out, base, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("agree(%s) exceeds = %v, want %v\n%s", c.b, got, c.want, out.String())
		}
	}
	rf, err := readResult(base)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Claim != nil {
		t.Errorf("the benchmark claims %+v; it must claim nothing", rf.Claim)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the catalogue
// in metrics.go and workloads.go identical, and inside the driver's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || strings.Join(doc.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.driverBound() || w.Bound <= 0 || w.driverBound() < w.Bound || w.driverBound() > 0.25)) {
				t.Errorf("%s %s: bound %v, catalogue %v (for the driver: %v)", kind, w.Name, g.Bound, w.Bound, w.driverBound())
			}
			if w.DriverBound != 0 && !timing(w.Name) {
				t.Errorf("%s %s: only a host-time metric may carry a wider bound for the driver", kind, w.Name)
			}
			if !name.MatchString(w.Name) || !unit.MatchString(w.Unit) || (w.Better != "lower" && w.Better != "higher") || seen[w.Name] {
				t.Errorf("%s %s (%s, %s): bad or repeated name, unit or direction", kind, w.Name, w.Unit, w.Better)
			}
			seen[w.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer(), false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics; the driver takes 128", len(doc.PerLayer))
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.driverBound())
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].driverBound() != largest {
		t.Errorf("setup_s must be present and carry the largest bound")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n<>&") {
			t.Errorf("workload %q: bad name or why (%d characters)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
}

// TestExpectedCoversThePinnedSeeds checks expected.json carries every
// workload and experiment for the seeds it pins, and that the sharded
// workload is pinned to the unsharded digest.
func TestExpectedCoversThePinnedSeeds(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []string{"1", "2"} {
		es, found := exp.Seeds[seed]
		if !found {
			t.Fatalf("seed %s is not pinned", seed)
		}
		for _, w := range []string{"perm-ndp", "perm-ndp-shards2", "rpc-churn"} {
			if len(es.Specs[w].Digest) != 64 || es.Specs[w].Parts == "" {
				t.Errorf("seed %s: %s is not pinned", seed, w)
			}
		}
		if es.Specs["perm-ndp"].Digest != es.Specs["perm-ndp-shards2"].Digest {
			t.Errorf("seed %s: the sharded workload is pinned to a different digest", seed)
		}
		for _, id := range defaultSizes().Experiments {
			if len(es.Experiments[id].Digest) != 64 {
				t.Errorf("seed %s: experiment %s is not pinned", seed, id)
			}
		}
	}
}
