// Package ndp is the public facade of the NDP reproduction (Handley et al.,
// "Re-architecting datacenter networks and stacks for low latency and high
// performance", SIGCOMM 2017).
//
// The implementation lives in internal packages:
//
//   - internal/sim     — discrete-event engine (picosecond clock, RNG)
//   - internal/fabric  — packets, ports, queues, switches, PFC
//   - internal/topo    — FatTree / leaf-spine topologies and source routes
//   - internal/core    — the NDP switch service model and transport
//   - internal/tcp, dctcp, mptcp, dcqcn, cp, phost — baselines
//   - internal/workload, stats, hostmodel — evaluation substrate
//   - internal/harness — one runner per paper table/figure, plus the
//     Transport abstraction and sweep-job pool everything runs on
//
// This package re-exports the experiment runner so the whole evaluation can
// be driven from benchmarks, tests, or the cmd/ndpsim CLI:
//
//	res, err := ndp.Run("fig14", ndp.Options{Scale: 1})
//	fmt.Print(res)
//
// To compose custom experiments — any transport x topology x workload
// cross-product rather than the paper's canned figures — use the public
// scenario package (ndp/scenario) or `ndpsim -scenario`.
package ndp

import (
	"fmt"
	"sort"

	"ndp/internal/harness"
)

// Options mirrors harness.Options: Scale in (0,1] shrinks topologies and
// durations (1.0 = paper scale), Seed fixes all randomness, Full unlocks
// the extreme sizes (8192-host FatTree), and Workers sizes the sweep-job
// pool (0 = all cores, 1 = serial; results are bit-identical either way).
type Options = harness.Options

// Result is a rendered experiment outcome; its String method prints the
// same rows/series the paper's figure plots, and Claims says whether this
// run shows what the paper reports.
type Result = harness.Result

// Run executes the experiment with the given id. The registered ids —
// kept in lockstep with the registry by TestExperimentsMatchDocumented —
// are:
//
//	fig2, fig4, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
//	fig16, fig17, fig19, fig20, fig21, fig22, fig23,
//	t-ablate, t-limits, t-phost, t-scale, t-trim
func Run(id string, o Options) (*Result, error) {
	e := harness.Get(id)
	if e == nil {
		return nil, fmt.Errorf("ndp: unknown experiment %q (known: %v)", id, Experiments())
	}
	return e.Run(o), nil
}

// Experiments lists the available experiment ids in order.
func Experiments() []string {
	var ids []string
	for _, e := range harness.All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line title of an experiment, or "".
func Describe(id string) string {
	if e := harness.Get(id); e != nil {
		return e.Title
	}
	return ""
}
