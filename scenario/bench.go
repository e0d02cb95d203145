package scenario

import (
	"fmt"
	"runtime"
	"time"
)

// BenchCase is one pinned benchmark: a stable name (the unit of comparison
// across BENCH_*.json files — never rename without a migration note) and the
// Spec one run of it executes. Procs, when non-zero, is the GOMAXPROCS to pin
// around every run of the case so parallel-engine curves keep a comparable
// shape across recording machines; zero leaves the runtime default untouched.
type BenchCase struct {
	Name  string
	Procs int
	Spec  Spec
}

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
func BenchSuite() []BenchCase {
	return []BenchCase{
		// 15:1 is the largest fan-in a 16-host FatTree offers; the 1.35MB
		// responses keep the case in the milliseconds range.
		{Name: "incast-tiny", Spec: benchSpec("incast", Params{Hosts: 16, Degree: 15, FlowSize: 1_350_000},
			WithDeadline(200*time.Millisecond))},
		{Name: "permutation-tiny", Spec: benchSpec("permutation", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(3*time.Millisecond))},
		{Name: "random-tiny", Spec: benchSpec("random", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(2*time.Millisecond))},
		{Name: "rpc-tiny", Spec: benchSpec("rpc", Params{Hosts: 16, Degree: 2},
			WithDeadline(5*time.Millisecond))},
		{Name: "failure-tiny", Spec: benchSpec("failure", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(3*time.Millisecond))},
		// Lossless/DCQCN: the PFC+ECN machinery (ingress gating, pause
		// cascades, rate timers) has a very different event profile from
		// the trimming fabrics, so it gets its own trajectory point.
		{Name: "lossless-tiny", Spec: benchSpec("incast", Params{Hosts: 16, Degree: 8, FlowSize: 90_000},
			WithTransport(DCQCN), WithDeadline(20*time.Millisecond))},
		// Figure-scale: the paper's 100:1 incast (Fig 17 class) and a
		// full-load permutation on a 128-host FatTree.
		{Name: "incast-large", Spec: benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithDeadline(200*time.Millisecond))},
		{Name: "permutation-large", Spec: benchSpec("permutation", Params{Hosts: 128},
			WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond))},
		// The same figure-scale cases under the sharded engine: identical
		// Metrics by construction (TestShardDeterminism), so wall time
		// against the unsharded twin in the same report is a pure
		// engine-speedup readout. It only improves with real cores; on a
		// single-CPU runner these measure the windowing overhead instead.
		{Name: "incast-large-shards4", Spec: benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithDeadline(200*time.Millisecond), WithShards(4))},
		{Name: "permutation-large-shards4", Spec: benchSpec("permutation", Params{Hosts: 128},
			WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond), WithShards(4))},
		// Figure-scale baseline transports under the sharded engine, added
		// when universal sharding lifted the NDP-only restriction: the
		// paper's headline NDP-vs-baseline comparisons run sharded, so
		// their engine cost gets trajectory points too (identical Metrics
		// to the unsharded twin, by TestShardDeterminismMatrix).
		{Name: "tcp-large", Spec: benchSpec("permutation", Params{Hosts: 128},
			WithTransport(TCP), WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond))},
		{Name: "tcp-large-shards4", Spec: benchSpec("permutation", Params{Hosts: 128},
			WithTransport(TCP), WithWarmup(time.Millisecond), WithWindow(5*time.Millisecond), WithShards(4))},
		{Name: "phost-large", Spec: benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithTransport(PHost), WithDeadline(200*time.Millisecond))},
		{Name: "phost-large-shards4", Spec: benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithTransport(PHost), WithDeadline(200*time.Millisecond), WithShards(4))},
	}
}

// BenchScalingSuite is the shard-scaling trajectory behind
// `ndpsim -bench -scaling`: two event-profile extremes — the lossless
// DCQCN fabric (PFC gating, pause mailboxes, rate timers) and the
// trimming NDP fabric at figure-scale incast — each run at 1, 2, 4 and 8
// shards under GOMAXPROCS pinned at what the 8-shard point can use, but never
// above the machine's CPUs (more Ps than cores measures oversubscription, not
// scaling; each report row records the value). Metrics are bit-identical
// across the curve (TestShardDeterminismMatrix), so wall time versus the
// shards1 point of the same report is a pure engine-speedup readout. Case
// names follow scaling-<family>-shards<n> and are trajectory-stable like the
// main suite's.
func BenchScalingSuite() []BenchCase {
	families := []BenchCase{
		// 128 hosts = a k=8 FatTree with 8 pods, so all four shard counts
		// are real partitions (16 hosts would clamp 8 shards to 4 pods).
		{Name: "scaling-lossless", Spec: benchSpec("incast", Params{Hosts: 128, Degree: 64, FlowSize: 90_000},
			WithTransport(DCQCN), WithDeadline(100*time.Millisecond))},
		{Name: "scaling-incast", Spec: benchSpec("incast", Params{Hosts: 128, Degree: 100, FlowSize: 135_000},
			WithDeadline(200*time.Millisecond))},
	}
	var out []BenchCase
	for _, f := range families {
		for _, shards := range []int{1, 2, 4, 8} {
			out = append(out, BenchCase{
				Name:  fmt.Sprintf("%s-shards%d", f.Name, shards),
				Procs: min(8, runtime.NumCPU()),
				Spec:  f.Spec.With(WithShards(shards)),
			})
		}
	}
	return out
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
