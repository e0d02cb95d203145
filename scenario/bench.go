package scenario

import (
	"fmt"
	"runtime"
	"time"

	"ndp/internal/harness"
)

// BenchSuite is the pinned benchmark trajectory behind `ndpsim -bench`:
// named scenarios at fixed seeds and sizes, run serially (Workers=1) so
// wall time measures single-simulation speed and allocation counts are
// exact. Case names are the unit of comparison across the committed
// BENCH_*.json files — never rename one without a migration note; add new
// cases instead.
//
// Every registry scenario contributes a "-tiny" case (16 hosts; the suffix
// is part of the trajectory-stable name) and the two workloads that dominate
// the paper's evaluation — large incast and full-load permutation — also run
// at figure scale for a signal on real experiment cost. The whole suite takes
// seconds, and CI gates allocs/op on all of it.
func BenchSuite() []harness.BenchCase {
	cases := []struct {
		name string
		spec Spec
	}{
		// 15:1 is the largest fan-in a 16-host FatTree offers; the 1.35MB
		// responses keep the case in the tens-of-milliseconds range where
		// events/sec is stable enough to gate on.
		{"incast-tiny", benchSpec("incast", Params{Hosts: 16, Degree: 15, FlowSize: 1_350_000},
			WithDeadline(200*time.Millisecond))},
		{"permutation-tiny", benchSpec("permutation", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(3*time.Millisecond))},
		{"random-tiny", benchSpec("random", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(2*time.Millisecond))},
		{"rpc-tiny", benchSpec("rpc", Params{Hosts: 16, Degree: 2},
			WithDeadline(5*time.Millisecond))},
		{"failure-tiny", benchSpec("failure", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(3*time.Millisecond))},
		// Lossless/DCQCN: the PFC+ECN machinery (ingress gating, pause
		// cascades, rate timers) has a very different event profile from
		// the trimming fabrics, so it gets its own trajectory point.
		{"lossless-tiny", benchSpec("incast", Params{Hosts: 16, Degree: 8, FlowSize: 90_000},
			WithTransport(DCQCN), WithDeadline(20*time.Millisecond))},
		// Figure-scale: the paper's 100:1 incast (Fig 17 class) and a
		// full-load permutation on a 128-host FatTree.
		{"incast-large", benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithDeadline(200*time.Millisecond))},
		{"permutation-large", benchSpec("permutation", Params{Hosts: 128},
			WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond))},
		// The same figure-scale cases under the sharded engine: identical
		// Metrics by construction (TestShardDeterminism), so events/sec
		// against the unsharded twin is a pure engine-speedup readout.
		// Wall time only improves with real cores (GOMAXPROCS > 1); on a
		// single-CPU runner these measure the windowing overhead instead.
		{"incast-large-shards4", benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithDeadline(200*time.Millisecond), WithShards(4))},
		{"permutation-large-shards4", benchSpec("permutation", Params{Hosts: 128},
			WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond), WithShards(4))},
		// Figure-scale baseline transports under the sharded engine, added
		// when universal sharding lifted the NDP-only restriction: the
		// paper's headline NDP-vs-baseline comparisons run sharded, so
		// their engine cost gets trajectory points too (identical Metrics
		// to the unsharded twin, by TestShardDeterminismMatrix).
		{"tcp-large", benchSpec("permutation", Params{Hosts: 128},
			WithTransport(TCP), WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond))},
		{"tcp-large-shards4", benchSpec("permutation", Params{Hosts: 128},
			WithTransport(TCP), WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond), WithShards(4))},
		{"phost-large", benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithTransport(PHost), WithDeadline(200*time.Millisecond))},
		{"phost-large-shards4", benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithTransport(PHost), WithDeadline(200*time.Millisecond), WithShards(4))},
	}
	out := make([]harness.BenchCase, 0, len(cases))
	for _, c := range cases {
		spec := c.spec
		out = append(out, harness.BenchCase{
			Name: c.name,
			Run:  func() harness.BenchCounts { return benchRun(spec) },
		})
	}
	return out
}

// benchScalingProcs pins GOMAXPROCS for the scaling curves at what the
// 8-shard point can use, but never above the machine's CPUs: more Ps than
// cores measures oversubscription, not scaling. The value used is recorded
// in each report row (procs).
func benchScalingProcs() int { return min(8, runtime.NumCPU()) }

// BenchScalingSuite is the shard-scaling trajectory behind
// `ndpsim -bench -scaling`: two event-profile extremes — the lossless
// DCQCN fabric (PFC gating, pause mailboxes, rate timers) and the
// trimming NDP fabric at figure-scale incast — each run at 1, 2, 4 and 8
// shards under a pinned GOMAXPROCS. Metrics are bit-identical across the
// curve (TestShardDeterminismMatrix), so events/sec versus the
// shards1 point is a pure engine-speedup readout. Case names follow
// scaling-<family>-shards<n> and are trajectory-stable like the main
// suite's.
func BenchScalingSuite() []harness.BenchCase {
	families := []struct {
		name string
		spec Spec
	}{
		// 128 hosts = a k=8 FatTree with 8 pods, so all four shard counts
		// are real partitions (16 hosts would clamp 8 shards to 4 pods).
		{"scaling-lossless", benchSpec("incast", Params{Hosts: 128, Degree: 64, FlowSize: 90_000},
			WithTransport(DCQCN), WithDeadline(100*time.Millisecond))},
		{"scaling-incast", benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithDeadline(200*time.Millisecond))},
	}
	var out []harness.BenchCase
	for _, f := range families {
		for _, shards := range []int{1, 2, 4, 8} {
			spec := f.spec.With(WithShards(shards))
			out = append(out, harness.BenchCase{
				Name:  fmt.Sprintf("%s-shards%d", f.name, shards),
				Procs: benchScalingProcs(),
				Run:   func() harness.BenchCounts { return benchRun(spec) },
			})
		}
	}
	return out
}

// benchRun is one run of a suite member.
func benchRun(spec Spec) harness.BenchCounts {
	m, stats, engine, err := runWithWindows(spec)
	if err != nil {
		panic(fmt.Sprintf("bench case: %v", err))
	}
	if m.FlowsLaunched == 0 {
		panic("bench case launched no flows")
	}
	return harness.BenchCounts{Events: stats.Events, PacketHops: stats.PacketHops,
		SerEndEvents: stats.SerEndEvents, CommandEvents: stats.CommandEvents,
		Windows: engine.windows, Queue: engine.queue}
}

// benchSpec builds one pinned suite member; registry names are known good
// (TestBenchSuite covers every case), so lookup failure is a programmer
// error.
func benchSpec(name string, p Params, opts ...Option) Spec {
	spec, err := Build(name, p, opts...)
	if err != nil {
		panic(err)
	}
	return spec.With(WithSeed(1), WithWorkers(1), WithRepeats(1))
}
