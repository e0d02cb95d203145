package harness

import (
	"fmt"
	"slices"

	"ndp/internal/core"
	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
)

func init() {
	run("t-ablate", "Switch service-model ablations: WRR, trim coin, bounce", tAblate)
}

// overloadRun drives n unresponsive line-rate flows into one egress of a
// switch with the given queue discipline and returns (mean%, worst10%) of
// fair goodput plus total drops. Fully determined by its arguments, so each
// cell of Figure 2 and each ablation variant runs as an independent sweep
// job.
func overloadRun(o Options, seed uint64, n int, queue topo.QueueFactory) (mean, worst float64, drops int64) {
	const mtu = 9000
	tt := topo.NewTwoTier(1, n+1, 0, topo.Config{Seed: seed, SwitchQueue: queue})
	defer tt.Close()
	core.WireBounce(tt.Switches)

	perFlow := make([]int64, n+1) // bytes delivered, by flow id 1..n
	tt.Hosts[0].Stack = fabric.SinkFunc(func(p *fabric.Packet) {
		if p.Type == fabric.Data && !p.Trimmed() {
			perFlow[p.Flow] += int64(p.DataSize)
		}
		fabric.Free(p)
	})
	offs := sim.NewRand(seed + uint64(n)*31)
	gap := sim.TransmissionTime(mtu, tt.LinkRate())
	for i := 1; i <= n; i++ {
		StartBlast(tt, i, 0, uint64(i), mtu, offs.Duration(gap))
	}
	warm := 2 * sim.Millisecond
	window := sim.Time(o.pick(4, 8, 16)) * sim.Millisecond
	tt.EL.RunUntil(warm)
	snap := slices.Clone(perFlow)
	tt.EL.RunUntil(warm + window)

	fair := float64(tt.LinkRate()) / float64(n) / 1e9
	var d stats.Dist
	for i := 1; i <= n; i++ {
		g := stats.Gbps(perFlow[i]-snap[i], window)
		d.Add(pct(g, fair))
	}
	return d.Mean(), d.MeanOfBottom(0.10), tt.CollectStats().Drops
}

// tAblate isolates each NDP switch design decision on the Figure 2 overload
// workload: the 10:1 WRR (vs strict priority), the 50% trim coin (vs
// CP-style trim-arriving), and return-to-sender (vs dropping overflow
// headers). One job per variant, all sharing one seed so each ablation
// faces the identical offered load.
func tAblate(o Options, r *Result) {
	n := o.pick(20, 60, 120)

	variants := []struct {
		name string
		mut  func(*core.SwitchConfig)
	}{
		{"NDP (paper)", func(*core.SwitchConfig) {}},
		{"strict priority (no WRR)", func(c *core.SwitchConfig) { c.HeaderWRR = 0 }},
		{"trim arriving only (no coin)", func(c *core.SwitchConfig) { c.TrimArrivingOnly = true }},
		{"no return-to-sender", func(c *core.SwitchConfig) { c.DisableBounce = true }},
	}
	type outcome struct {
		mean, worst float64
		drops       int64
	}
	jobs := make([]Job[outcome], len(variants))
	for i, v := range variants {
		v := v
		jobs[i] = NewJob("t-ablate/"+v.name, o.Seed, func(seed uint64) outcome {
			scfg := core.DefaultSwitchConfig(9000)
			v.mut(&scfg)
			mean, worst, drops := overloadRun(o, seed, n, core.QueueFactory(scfg, seed+99))
			return outcome{mean, worst, drops}
		})
	}

	t := &stats.Table{Header: []string{"variant", "mean%", "worst10%", "drops"}}
	res := RunJobs(o, jobs) // in variants order
	for i, v := range res {
		t.AddRow(variants[i].name, f4(v.mean), f4(v.worst), fmt.Sprint(v.drops))
	}
	r.AddTable(fmt.Sprintf("%d unresponsive flows into one 10G egress", n), t)
	r.Notef("expected: strict priority lets the header flood crowd out data (CP-style goodput collapse); removing the coin collapses worst-10%% fairness (phase effects); disabling bounce turns overflow headers into silent drops")
	paper, strict, noCoin, noBounce := res[0], res[1], res[2], res[3]
	r.Check("strict priority's mean is below the paper switch's", strict.mean < paper.mean,
		"%.4g vs %.4g %%", strict.mean, paper.mean)
	r.Check("trimming the arriving packet only lowers the worst 10%", noCoin.worst < paper.worst,
		"%.4g vs %.4g %%", noCoin.worst, paper.worst)
	r.Check("drops appear only without return-to-sender",
		paper.drops == 0 && strict.drops == 0 && noCoin.drops == 0 && noBounce.drops > 0,
		"%d, %d, %d, %d", paper.drops, strict.drops, noCoin.drops, noBounce.drops)
}
