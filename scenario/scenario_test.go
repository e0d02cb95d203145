package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// tinyIncast is a fast cross-transport scenario: 7:1 incast of 90KB on the
// 8-host NetFPGA-testbed topology.
func tinyIncast() Spec {
	return New(
		WithTopology(TwoTier(4, 2, 2)),
		WithWorkload(Incast(7, 90_000)),
		WithSeed(3),
		WithDeadline(600*time.Millisecond),
	)
}

// TestAllTransportsIncast drives the same incast through every transport
// via the uniform StartFlow surface and checks each produces a sane FCT
// distribution.
func TestAllTransportsIncast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for _, tr := range Transports() {
		tr := tr
		t.Run(string(tr), func(t *testing.T) {
			m, err := Run(tinyIncast().With(WithTransport(tr)))
			if err != nil {
				t.Fatal(err)
			}
			if m.FlowsLaunched != 7 {
				t.Fatalf("launched %d flows, want 7", m.FlowsLaunched)
			}
			if m.FlowsCompleted == 0 || m.FCT == nil || m.FCT.N != m.FlowsCompleted {
				t.Fatalf("no completions recorded: %+v", m)
			}
			if m.FCT.Min <= 0 || m.FCT.Max < m.FCT.Min {
				t.Errorf("%s: implausible FCTs: %+v", tr, m.FCT)
			}
			if m.Transport != string(tr) {
				t.Errorf("metrics transport %q, want %q", m.Transport, tr)
			}
		})
	}
}

// TestTopologiesPermutation runs the NDP permutation workload over every
// topology kind and expects nonzero utilization.
func TestTopologiesPermutation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	topos := []Topology{
		FatTree(4),
		OversubFatTree(4, 2),
		TwoTier(4, 4, 4),
		Jellyfish(8, 2, 3),
	}
	for _, tp := range topos {
		tp := tp
		t.Run(tp.String(), func(t *testing.T) {
			m, err := Run(New(
				WithTopology(tp),
				WithWorkload(Permutation()),
				WithSeed(5),
				WithWarmup(time.Millisecond),
				WithWindow(3*time.Millisecond),
			))
			if err != nil {
				t.Fatal(err)
			}
			if len(m.GoodputGbps) != tp.Hosts() {
				t.Fatalf("%d goodput samples, want %d", len(m.GoodputGbps), tp.Hosts())
			}
			if m.UtilizationPct <= 0 || m.UtilizationPct > 100.5 {
				t.Errorf("utilization %.2f%% implausible", m.UtilizationPct)
			}
		})
	}
}

// TestRPCAndRandomWorkloads exercises the remaining workload kinds.
func TestRPCAndRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	m, err := Run(New(
		WithTopology(FatTree(4)),
		WithWorkload(RPC(2)),
		WithDeadline(5*time.Millisecond),
		WithSeed(7),
	))
	if err != nil {
		t.Fatal(err)
	}
	if m.FCT == nil || m.FCT.N == 0 || m.FlowsLaunched < m.FlowsCompleted {
		t.Fatalf("rpc produced no FCTs: %+v", m)
	}

	m, err = Run(New(
		WithTopology(FatTree(4)),
		WithWorkload(Random()),
		WithWarmup(time.Millisecond),
		WithWindow(2*time.Millisecond),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GoodputGbps) != 16 {
		t.Fatalf("random: %d goodput samples, want 16", len(m.GoodputGbps))
	}
}

// TestLinkFailurePenalty reproduces the Figure 22 shape through the public
// API: disabling NDP's path penalty must not help on a degraded fabric.
func TestLinkFailurePenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// k=8: the scoreboard needs enough per-path NACK samples to spot the
	// asymmetry; at k=4 the degraded link never crosses the exclusion
	// threshold within a short window.
	base := New(
		WithTopology(FatTree(8)),
		WithWorkload(Permutation()),
		WithLinkFailure(0, 0, 1e9),
		WithSeed(21),
		WithWarmup(3*time.Millisecond),
		WithWindow(10*time.Millisecond),
	)
	with, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(base.With(WithPathPenalty(false)))
	if err != nil {
		t.Fatal(err)
	}
	if with.UtilizationPct <= 0 || without.UtilizationPct <= 0 {
		t.Fatalf("degraded runs produced no goodput: with=%v without=%v",
			with.UtilizationPct, without.UtilizationPct)
	}
	// The observable that proves the knob is wired: the scoreboard
	// excludes paths when enabled and never when disabled.
	if with.PathsExcluded == 0 {
		t.Errorf("path penalty enabled but no paths were excluded on a degraded fabric")
	}
	if without.PathsExcluded != 0 {
		t.Errorf("path penalty disabled yet %d paths excluded", without.PathsExcluded)
	}
}

// TestDeterminismAcrossWorkers is the core public-API guarantee: the same
// Spec produces bit-identical Metrics at Workers=1 and Workers=8, even
// with multiple repeats in flight.
func TestDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := New(
		WithTopology(FatTree(4)),
		WithTransport(NDP),
		WithWorkload(Incast(10, 45_000)),
		WithSeed(11),
		WithRepeats(6),
		WithDeadline(100*time.Millisecond),
	)
	serial, err := Run(spec.With(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec.With(WithWorkers(8)))
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Errorf("metrics differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
}

// TestMetricsJSONRoundTrip checks Metrics survive marshal/unmarshal.
func TestMetricsJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	m, err := Run(tinyIncast())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*m, back) {
		t.Errorf("metrics changed over JSON round-trip:\nbefore %+v\nafter  %+v", *m, back)
	}
}

// TestCatalog checks the named-scenario registry contents and Build.
func TestCatalog(t *testing.T) {
	want := map[string]bool{"incast": true, "permutation": true, "random": true, "rpc": true, "failure": true}
	for _, n := range Catalog() {
		delete(want, n.Name)
		if n.Description == "" {
			t.Errorf("scenario %q has no description", n.Name)
		}
		spec := n.Spec(Params{Hosts: 16, Degree: 3, FlowSize: 9000})
		if err := spec.withDefaults().Validate(); err != nil {
			t.Errorf("scenario %q builds an invalid spec: %v", n.Name, err)
		}
	}
	for name := range want {
		t.Errorf("scenario %q missing from catalog", name)
	}
	if _, err := Build("nope", Params{}); err == nil {
		t.Error("Build should reject unknown scenario names")
	}
	if spec, err := Build("incast", Params{Hosts: 16, Degree: 3, FlowSize: 9000}, WithTransport(DCQCN)); err != nil {
		t.Error(err)
	} else if spec.Transport != DCQCN || spec.name != "incast" {
		t.Errorf("Build did not apply options/name: %+v", spec)
	}
}

// TestIncastPrioritizedStraggler checks the §5 prioritization path: the
// last flow of a prioritized incast must finish far earlier than the
// incast as a whole, and FCTsUs must expose it in flow-start order.
func TestIncastPrioritizedStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := New(
		WithTopology(FatTree(4)),
		WithWorkload(IncastPrioritized(10, 135_000)),
		WithSeed(11),
	)
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.FlowsCompleted != 10 || len(m.FCTsUs) != 10 {
		t.Fatalf("expected 10 completed flows, got %d (%d FCT samples)", m.FlowsCompleted, len(m.FCTsUs))
	}
	straggler := m.FCTsUs[len(m.FCTsUs)-1]
	lastUs := m.LastCompletionMs * 1e3
	if straggler > lastUs/2 {
		t.Errorf("prioritized straggler (%.4g us) not served ahead of the incast (last %.4g us)", straggler, lastUs)
	}
}

// TestWithDoesNotAliasFailures checks that fanning a base Spec into
// variants never shares the Failures backing array.
func TestWithDoesNotAliasFailures(t *testing.T) {
	base := New(
		WithTopology(FatTree(4)),
		WithLinkFailure(0, 0, 1e9),
		WithLinkFailure(1, 0, 1e9),
		WithLinkFailure(2, 0, 1e9),
	)
	a := base.With(WithLinkFailure(3, 0, 111e6))
	b := base.With(WithLinkFailure(3, 1, 222e6))
	if a.Failures[3].RateBps != 111e6 || b.Failures[3].RateBps != 222e6 {
		t.Errorf("variants share failure storage: a=%+v b=%+v", a.Failures[3], b.Failures[3])
	}
	if len(base.Failures) != 3 {
		t.Errorf("base spec mutated: %+v", base.Failures)
	}
}

// TestValidate rejects malformed specs with useful errors.
func TestValidate(t *testing.T) {
	bad := []Spec{
		New(WithTransport("carrier-pigeon")),
		New(WithTopology(Topology{Kind: "moebius"})),
		New(WithTopology(FatTree(5))),
		New(WithWorkload(Incast(0, 9000))),
		New(WithWorkload(Incast(5, -3))),
		New(WithTopology(FatTree(4)), WithWorkload(Incast(16, 9000))), // only 15 senders exist
		New(WithWorkload(Workload{Kind: "yodeling"})),
		New(WithTopology(TwoTier(2, 2, 2)), WithLinkFailure(0, 0, 1e9)),
		New(WithTopology(FatTree(4)), WithLinkFailure(99, 0, 1e9)), // only 8 aggs on k=4
		New(WithTopology(FatTree(4)), WithLinkFailure(0, 2, 1e9)),  // only 2 uplinks per agg
		New(WithTransport(DCTCP), WithPathPenalty(false)),
		New(WithMTU(5)),
		New(WithWorkload(RPC(2)), WithDeadline(-time.Millisecond)), // would launch flows and complete none
		New(WithWorkload(Workload{Kind: "rpc", Degree: 2, Gap: -time.Millisecond})),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	if err := New().Validate(); err != nil {
		t.Errorf("default spec should validate: %v", err)
	}
}
