package harness

import (
	"fmt"

	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
)

func init() {
	run("t-limits", "Limitations (section 3): NDP on an asymmetric Jellyfish vs MPTCP", tLimits)
}

// tLimits reproduces the paper's "Limitations of NDP" discussion: on an
// asymmetric random topology (Jellyfish), NDP sprays packets onto unequal-
// length paths that are costly under load, while MPTCP's per-path
// congestion control shifts traffic onto the good paths. We run the same
// permutation on a Jellyfish and on a fully-provisioned FatTree and report
// utilization side by side. One job per (topology, protocol) scenario.
func tLimits(o Options, r *Result) {
	nSwitches := o.pick(12, 16, 24)
	hostsPer := 2 // modest oversubscription: path choice, not raw bisection,
	degree := 5   // dominates the outcome
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(5, 8, 15)) * sim.Millisecond

	jfBuilder := func(c topo.Config) topo.Cluster {
		return topo.NewJellyfish(nSwitches, hostsPer, degree, 8, c)
	}
	ftK := 4
	if nSwitches*hostsPer > 16 {
		ftK = 8
	}

	// NDP sprays across the Jellyfish's asymmetric path set; MPTCP's
	// per-path congestion control runs on the same one; the reference is NDP
	// on a FatTree of comparable size (symmetric paths).
	protos := append(contenders(jfBuilder, 9000, "NDP", "MPTCP"), contenders(FatTreeBuilder(ftK), 9000, "NDP")...)
	topos := []string{"jellyfish", "jellyfish", "fattree"}
	jobs := make([]Job[[]float64], len(protos))
	for i, p := range protos {
		jobs[i] = NewJob("t-limits/"+topos[i]+"/"+p.name, o.Seed, func(seed uint64) []float64 {
			return permGoodput(p.build(seed), seed, warm, window)
		})
	}

	t := &stats.Table{Header: []string{"topology", "protocol", "util%", "min_gbps", "p50_gbps"}}
	for i, g := range RunJobs(o, jobs) {
		d := distOf(g)
		t.AddRow(topos[i], protos[i].name, f4(100*utilization(g, 10e9)), f4(d.Min()), f4(d.Median()))
	}

	jf := topo.NewJellyfish(nSwitches, hostsPer, degree, 8, topo.Config{Seed: o.Seed})
	min, max := jf.PathLengthSpread(200, sim.NewRand(o.Seed))
	r.AddTable(fmt.Sprintf("permutation on jellyfish (%d switches x deg %d, path lengths %d-%d hops)",
		nSwitches, degree, min, max), t)
	r.Notef("paper claim (section 3, Limitations): NDP 'will behave poorly' on asymmetric topologies. Compare each protocol against its own Clos number (fig14): NDP loses far more moving to Jellyfish than MPTCP does, because uniform spraying keeps paying for the long paths while per-path congestion control walks away from them")
}
