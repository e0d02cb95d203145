// Package scenario is the public, composable face of the NDP simulator: it
// lets any transport x topology x workload cross-product be described as a
// declarative Spec and executed with Run, without touching the internal
// packages.
//
// A Spec is assembled from functional options:
//
//	spec := scenario.New(
//		scenario.WithTopology(scenario.FatTree(8)),        // 128 hosts
//		scenario.WithTransport(scenario.DCQCN),
//		scenario.WithWorkload(scenario.Incast(100, 135_000)),
//		scenario.WithSeed(7),
//	)
//	m, err := scenario.Run(spec)
//	fmt.Print(m)
//
// Topologies: FatTree, OversubFatTree, TwoTier, Jellyfish, BackToBack.
// Transports: NDP, TCP, DCTCP, MPTCP, DCQCN, PHost.
// Workloads: Incast, Permutation, Random, RPC — plus link failures via
// WithLinkFailure.
//
// Run returns structured Metrics: the flow-completion-time distribution,
// per-flow goodput, utilization and fairness, and the switch trim / bounce
// / drop / mark counters. Metrics marshal to JSON.
//
// Commonly useful combinations are registered as named scenarios (incast,
// permutation, random, rpc, failure — see Catalog) so they can be launched
// from the CLI: `ndpsim -scenario incast -transport dcqcn -hosts 128`.
//
// Runs are deterministic: the same Spec produces bit-identical Metrics for
// any Workers count, because repeats decompose into seed-derived sweep
// jobs on the internal/harness job pool.
package scenario

import (
	"fmt"
	"time"
)

// Transport selects the protocol stack installed on every host.
type Transport string

// The transports of the paper's evaluation: NDP and its five baselines.
const (
	NDP   Transport = "ndp"   // trimming switches, receiver-driven pulls
	TCP   Transport = "tcp"   // NewReno, drop-tail, Linux-like 200ms MinRTO
	DCTCP Transport = "dctcp" // ECN-fraction control, 200-packet ECN queues
	MPTCP Transport = "mptcp" // 8 linked-increases subflows on distinct paths
	DCQCN Transport = "dcqcn" // RoCE rate control over lossless PFC Ethernet
	PHost Transport = "phost" // receiver tokens over shallow drop-tail queues
)

// Transports lists every supported transport.
func Transports() []Transport {
	return []Transport{NDP, TCP, DCTCP, MPTCP, DCQCN, PHost}
}

// LinkFailure degrades one agg->core link of a FatTree to RateBps — the
// silently-renegotiated 1Gb/s link of the paper's Figure 22.
type LinkFailure struct {
	Agg     int   `json:"agg"`      // aggregation switch index
	CoreOff int   `json:"core_off"` // which of its core uplinks
	RateBps int64 `json:"rate_bps"` // new line rate
}

// Spec is a declarative scenario: what network to build, which transport
// to install, what traffic to drive, and how to measure it. Build Specs
// with New and the With* options; the zero value is not runnable.
type Spec struct {
	Topology  Topology      `json:"topology"`
	Transport Transport     `json:"transport"`
	Workload  Workload      `json:"workload"`
	Failures  []LinkFailure `json:"failures,omitempty"`

	// Warmup and Window bound goodput measurement for unbounded
	// workloads: meters start after Warmup and read after Window more.
	Warmup time.Duration `json:"warmup"`
	Window time.Duration `json:"window"`
	// Deadline caps flow-completion workloads; zero derives a generous
	// bound from the workload's ideal completion time.
	Deadline time.Duration `json:"deadline,omitempty"`

	// MTU is the data-packet size in bytes (default 9000).
	MTU int `json:"mtu"`
	// Seed fixes every RNG in the run.
	Seed uint64 `json:"seed"`
	// Workers sizes the sweep-job pool for multi-point runs: 0 means all
	// cores, 1 runs serially. Metrics are bit-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Shards splits each single simulation into this many per-core
	// partitions advanced in conservative time windows (one event list per
	// shard, windows bounded by the per-shard-pair lookahead matrix). 0/1
	// keeps the proven single-list engine. Metrics are bit-identical for
	// any value. Supported for every transport — including dcqcn, whose
	// PFC pause signals cross shard cuts as keyed mailbox entries with the
	// link's propagation delay as lookahead — on the fattree, twotier and
	// jellyfish topologies; backtoback has nothing to partition. Workers
	// parallelizes across repeats while Shards parallelizes within one
	// simulation, and the two compose.
	Shards int `json:"shards,omitempty"`
	// Repeats runs the scenario at Repeats derived seeds (one sweep job
	// each) and aggregates the Metrics (default 1).
	Repeats int `json:"repeats"`
	// DisablePathPenalty turns off NDP's path scoreboard (§3.2.3), the
	// "NDP without path penalty" ablation. NDP only.
	DisablePathPenalty bool `json:"disable_path_penalty,omitempty"`

	// name is set when the Spec came from the named-scenario registry.
	name string
	// progress is the optional coarse progress hook installed by
	// WithProgress. Being unexported it never marshals, so it is invisible
	// to Hash and to the daemon's wire encoding.
	progress func(Progress)
}

// Name returns the registry name the Spec was built from ("" for
// hand-assembled Specs). It rides into Metrics.Scenario, so two otherwise
// identical Specs with different names produce different Metrics — cache
// keys must include it alongside Hash.
func (s Spec) Name() string { return s.name }

// Option mutates a Spec under construction.
type Option func(*Spec)

// New assembles a Spec from options on top of runnable defaults: a k=4
// FatTree, the NDP transport, an unbounded permutation workload, 3ms
// warmup, 10ms measurement window, MTU 9000, seed 1, one repeat.
func New(opts ...Option) Spec {
	s := Spec{
		Topology:  FatTree(4),
		Transport: NDP,
		Workload:  Permutation(),
		Warmup:    3 * time.Millisecond,
		Window:    10 * time.Millisecond,
		MTU:       9000,
		Seed:      1,
		Repeats:   1,
	}
	return s.With(opts...)
}

// With returns a copy of the Spec with the options applied — Specs compose
// by value, so a base Spec can fan out into variants. The Failures slice
// is cloned so variants never share a backing array.
func (s Spec) With(opts ...Option) Spec {
	s.Failures = append([]LinkFailure(nil), s.Failures...)
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithTopology sets the network to build.
func WithTopology(t Topology) Option { return func(s *Spec) { s.Topology = t } }

// WithTransport sets the protocol stack.
func WithTransport(t Transport) Option { return func(s *Spec) { s.Transport = t } }

// WithWorkload sets the traffic pattern.
func WithWorkload(w Workload) Option { return func(s *Spec) { s.Workload = w } }

// WithLinkFailure degrades one agg->core FatTree link to rateBps.
func WithLinkFailure(agg, coreOff int, rateBps int64) Option {
	return func(s *Spec) {
		s.Failures = append(s.Failures, LinkFailure{Agg: agg, CoreOff: coreOff, RateBps: rateBps})
	}
}

// WithWarmup sets the goodput warmup interval.
func WithWarmup(d time.Duration) Option { return func(s *Spec) { s.Warmup = d } }

// WithWindow sets the goodput measurement window.
func WithWindow(d time.Duration) Option { return func(s *Spec) { s.Window = d } }

// WithDeadline caps flow-completion workloads.
func WithDeadline(d time.Duration) Option { return func(s *Spec) { s.Deadline = d } }

// WithMTU sets the data-packet size in bytes.
func WithMTU(mtu int) Option { return func(s *Spec) { s.MTU = mtu } }

// WithSeed fixes all randomness.
func WithSeed(seed uint64) Option { return func(s *Spec) { s.Seed = seed } }

// WithWorkers sizes the sweep-job pool (0 = all cores; results are
// identical for any value).
func WithWorkers(n int) Option { return func(s *Spec) { s.Workers = n } }

// WithShards splits each simulation into n conservative time-window
// shards. Results are identical for any value. Supported for every
// transport on the fattree, twotier and jellyfish topologies.
func WithShards(n int) Option { return func(s *Spec) { s.Shards = n } }

// WithRepeats aggregates the scenario over n derived seeds.
func WithRepeats(n int) Option { return func(s *Spec) { s.Repeats = n } }

// WithPathPenalty enables or disables NDP's path scoreboard (on by
// default; only meaningful with the NDP transport).
func WithPathPenalty(on bool) Option { return func(s *Spec) { s.DisablePathPenalty = !on } }

// withDefaults fills unset structural values so hand-built Specs behave
// like New ones. Warmup 0 (meter from t=0) and Seed 0 are meaningful
// explicit values and are honoured, not rewritten — New is where the
// friendly defaults live.
func (s Spec) withDefaults() Spec {
	if s.Topology.Kind == "" {
		s.Topology = FatTree(4)
	}
	if s.Transport == "" {
		s.Transport = NDP
	}
	if s.Workload.Kind == "" {
		s.Workload = Permutation()
	}
	if s.Window == 0 {
		s.Window = 10 * time.Millisecond
	}
	if s.MTU == 0 {
		s.MTU = 9000
	}
	if s.Repeats <= 0 {
		s.Repeats = 1
	}
	return s
}

// Validate reports why the Spec cannot run, or nil. It fills defaults
// first, so a partially-specified Spec (e.g. one decoded from JSON) is
// judged exactly as Run would judge it. The CLI and the ndpsimd daemon
// both reject unsupported Specs through this single gate, so an HTTP 400
// carries the same supported-matrix message as a CLI exit 2.
func Validate(s Spec) error { return s.withDefaults().Validate() }

// Validate reports why the Spec cannot run, or nil.
func (s Spec) Validate() error {
	if err := s.Topology.validate(); err != nil {
		return err
	}
	switch s.Transport {
	case NDP, TCP, DCTCP, MPTCP, DCQCN, PHost:
	default:
		return fmt.Errorf("scenario: unknown transport %q (known: %v)", s.Transport, Transports())
	}
	if err := s.Workload.validate(s.Topology.Hosts()); err != nil {
		return err
	}
	if len(s.Failures) > 0 && s.Topology.Kind != "fattree" {
		return fmt.Errorf("scenario: link failures require a fattree topology, not %q", s.Topology.Kind)
	}
	for _, f := range s.Failures {
		if f.RateBps <= 0 {
			return fmt.Errorf("scenario: link failure rate must be positive, got %d", f.RateBps)
		}
		// A k-ary FatTree has k*k/2 aggregation switches with k/2 core
		// uplinks each.
		aggs, ups := s.Topology.K*s.Topology.K/2, s.Topology.K/2
		if f.Agg < 0 || f.Agg >= aggs || f.CoreOff < 0 || f.CoreOff >= ups {
			return fmt.Errorf("scenario: link failure agg=%d core_off=%d out of range for k=%d (agg < %d, core_off < %d)",
				f.Agg, f.CoreOff, s.Topology.K, aggs, ups)
		}
	}
	if s.DisablePathPenalty && s.Transport != NDP {
		return fmt.Errorf("scenario: path penalty is an NDP knob; transport is %q", s.Transport)
	}
	if s.Warmup < 0 || s.Window <= 0 {
		return fmt.Errorf("scenario: warmup/window must be positive (warmup=%v window=%v)", s.Warmup, s.Window)
	}
	if s.Deadline < 0 {
		return fmt.Errorf("scenario: deadline must be >= 0 (0 derives one), got %v", s.Deadline)
	}
	if s.MTU < 64 {
		return fmt.Errorf("scenario: MTU %d too small", s.MTU)
	}
	if s.Shards < 0 {
		return fmt.Errorf("scenario: shards must be >= 0, got %d", s.Shards)
	}
	if s.Shards > 1 {
		switch s.Topology.Kind {
		case "fattree", "twotier", "jellyfish":
		default:
			return fmt.Errorf("scenario: sharded execution supports the fattree, twotier and jellyfish topologies, not %q", s.Topology.Kind)
		}
	}
	return nil
}
