package harness

import (
	"fmt"
	"slices"

	"ndp/internal/core"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
)

func init() {
	run("fig23", "Facebook web workload on a 4:1 oversubscribed FatTree", fig23)
	run("t-phost", "pHost vs NDP: who needs packet trimming? (section 6.2)", tPhost)
	run("t-scale", "Permutation utilization vs topology size (section 6.2)", tScale)
	run("t-trim", "Uplink trim locality: source vs switch load balancing (section 3.2.4)", tTrim)
}

// fig23 runs the closed-loop Facebook web workload on an oversubscribed
// FatTree for NDP and DCTCP at moderate and high load. One job per (load,
// protocol) cell; both protocols of a load level share its seed.
func fig23(o Options, r *Result) {
	k := o.pick(4, 4, 8)
	oversub := 4
	mtu := 1500 // the web workload is dominated by small packets
	deadline := sim.Time(o.pick(20, 40, 60)) * sim.Millisecond
	loads := []int{5, 10} // simultaneous connections per host

	type cell struct {
		row   Row
		p50   float64
		flows int
		notes []string
	}
	protos := contenders(OversubFatTreeBuilder(k, oversub), mtu, "NDP", "DCTCP")
	var jobs []Job[cell]
	for _, conns := range loads {
		for _, p := range protos {
			jobs = append(jobs, NewJob(fmt.Sprintf("fig23/conns%d/%s", conns, p.name), o.Seed, func(seed uint64) cell {
				n := p.build(seed)
				defer n.Close()
				c := n.Cluster()
				var fcts stats.Dist
				// A connection slot's flows are sequential, so the recording
				// callback and what it reads live per slot, not per flow.
				type slot struct {
					start  sim.Time
					inner  func(at sim.Time)
					onDone func(at sim.Time)
				}
				slots := make([]slot, c.NumHosts()*conns)
				cl := &workload.ClosedLoop{
					Hosts:         c.NumHosts(),
					Conns:         conns,
					Gap:           sim.Millisecond,
					Sizes:         workload.FacebookWeb(),
					Seed:          seed + 7,
					NotifyLatency: func(int, int) sim.Time { return c.LinkDelay() },
					Defer:         c.Defer,
					Start: func(i, src, dst int, size int64, done func(at sim.Time)) {
						sl := &slots[i]
						if sl.onDone == nil {
							sl.onDone = func(at sim.Time) {
								fcts.Add((at - sl.start).Millis())
								sl.inner(at)
							}
						}
						sl.start, sl.inner = n.EL().Now(), done
						n.StartFlow(src, dst, size, StartOpts{OnDone: sl.onDone})
					},
				}
				cl.Run()
				n.EL().RunUntil(deadline)
				out := cell{row: Row{fmt.Sprint(conns), p.name, f4(fcts.Median()), f4(fcts.Quantile(0.9)),
					f4(fcts.Quantile(0.99)), fmt.Sprint(fcts.N())}, p50: fcts.Median(), flows: fcts.N()}
				if p.name == "NDP" {
					st := c.CollectStats()
					out.notes = []string{fmt.Sprintf("NDP conns=%d: %d trims, %d bounces, %d drops",
						conns, st.Trims, st.Bounces, st.Drops)}
				}
				return out
			}))
		}
	}

	t := &stats.Table{Header: []string{"conns/host", "protocol", "p50_ms", "p90_ms", "p99_ms", "flows"}}
	cells := RunJobs(o, jobs) // by load, then NDP and DCTCP
	for _, c := range cells {
		t.AddRow(c.row...)
		for _, n := range c.notes {
			r.Notef("%s", n)
		}
	}
	r.AddTable("closed-loop web-workload FCTs (4:1 oversubscribed core)", t)
	r.Notef("paper shape: moderate load: NDP median ~half of DCTCP, p99 ~a third; high load: NDP still at least matches DCTCP, no collapse")
	halved := true
	var ratio []float64 // NDP's median over DCTCP's, by load
	for l := range loads {
		ndp, dctcp := cells[2*l], cells[2*l+1]
		halved = halved && ndp.p50 > 0 && ndp.p50 <= 0.5*dctcp.p50
		ratio = append(ratio, ndp.p50/dctcp.p50)
	}
	r.Check("NDP's median FCT is at most half of DCTCP's at both loads", halved, "NDP/DCTCP %s", f4s(ratio...))
	high := cells[len(cells)-2:]
	r.Check("at the high load NDP completes >= 0.9x as many flows as DCTCP", float64(high[0].flows) >= 0.9*float64(high[1].flows),
		"%d vs %d", high[0].flows, high[1].flows)
}

// tPhost reproduces the section 6.2 comparison: pHost (no trimming,
// per-packet ECMP, drop-tail) against NDP on the big incast and the
// permutation matrix. Four jobs: (incast, permutation) x (pHost, NDP).
func tPhost(o Options, r *Result) {
	k := o.pick(4, 8, 8)
	hosts := k * k * k / 4
	nsend := hosts - 1
	const size = 450_000
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(5, 10, 15)) * sim.Millisecond

	// Incast: last-flow completion in ms; permutation: utilization fraction.
	protos := contenders(FatTreeBuilder(k), 9000, "pHost", "NDP")
	var jobs []Job[float64]
	for _, p := range protos {
		jobs = append(jobs, NewJob("t-phost/incast/"+p.name, o.Seed, func(seed uint64) float64 {
			n := p.build(seed)
			defer n.Close()
			in := startIncast(n, 0, workload.IncastSenders(0, nsend, hosts), size)
			n.EL().RunUntil(10 * sim.Second)
			return in.last.Millis()
		}))
	}
	for _, p := range protos {
		jobs = append(jobs, NewJob("t-phost/perm/"+p.name, o.Seed, func(seed uint64) float64 {
			return utilization(permGoodput(p.build(seed), seed, warm, window), 10e9)
		}))
	}
	res := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"metric", "pHost", "NDP"}}
	t.AddRow(fmt.Sprintf("%d:1 incast last FCT (ms)", nsend), f4(res[0]), f4(res[1]))
	t.AddRow("permutation utilization (%)", f4(100*res[2]), f4(100*res[3]))
	r.AddTable("pHost vs NDP", t)
	r.Notef("paper shape: pHost's incast ~10x slower than NDP; permutation ~70%% vs NDP ~95%%")
	r.Check("pHost's incast finishes after NDP's", res[0] > res[1] && res[1] > 0, "pHost/NDP %.4gx", res[0]/res[1])
	r.Check("pHost's permutation utilization is below NDP's", res[2] < res[3], "%.4g vs %.4g %%", 100*res[2], 100*res[3])
}

// tScale measures permutation utilization as the FatTree grows. One job
// per topology size.
func tScale(o Options, r *Result) {
	ks := []int{4, 8}
	if o.Scale >= 0.4 {
		ks = []int{8, 12}
	}
	if o.Scale >= 0.99 {
		ks = []int{8, 12, 16}
	}
	if o.Full {
		ks = append(ks, 32)
	}
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(5, 8, 10)) * sim.Millisecond

	jobs := make([]Job[float64], len(ks))
	for i, k := range ks {
		k := k
		jobs[i] = NewJob(fmt.Sprintf("t-scale/k%d", k), o.Seed, func(seed uint64) float64 {
			n := DefaultNDPTransport(9000).Build(FatTreeBuilder(k), topo.Config{Seed: seed})
			return 100 * utilization(permGoodput(n, seed, warm, window), 10e9)
		})
	}
	res := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"hosts", "utilization%"}}
	for i, k := range ks {
		t.AddFloats(fmt.Sprint(k*k*k/4), res[i])
	}
	r.AddTable("permutation utilization vs size (8pkt buffers, IW 30)", t)
	r.Notef("paper shape: gentle decline from ~98%% (128 hosts) to ~90%% (8192 hosts); pass -full for k=32")
	r.Check("utilization never rises with size and stays >= 90%",
		pairwise(res, func(a, b float64) bool { return b <= a }) && slices.Min(res) >= 90, "%s %%", f4s(res...))
}

// tTrim compares where packets get trimmed when the sender chooses paths
// (permuted lists) versus per-packet random ECMP at switches. One job per
// load-balancing mode.
func tTrim(o Options, r *Result) {
	k := o.pick(4, 8, 8)
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(5, 10, 15)) * sim.Millisecond

	type trims struct{ uplinkPct, totalPct, util float64 }
	modes := []bool{false, true}
	jobs := make([]Job[trims], len(modes))
	for i, switchLB := range modes {
		switchLB := switchLB
		name := "senderLB"
		if switchLB {
			name = "switchLB"
		}
		jobs[i] = NewJob("t-trim/"+name, o.Seed, func(seed uint64) trims {
			hcfg := core.DefaultConfig()
			hcfg.SwitchLB = switchLB
			// The switch-queue seed is the one the table was pinned with,
			// not the one NDPTransport derives.
			queue := core.QueueFactory(core.DefaultSwitchConfig(9000), seed+41)
			ft := topo.NewFatTree(k, topo.Config{Seed: seed, SwitchQueue: queue})
			n := newNDPNet(ft, hcfg, seed)
			defer n.Close()
			flows := startMatrix(n, workload.Permutation(ft.NumHosts(), sim.NewRand(seed)))
			g := runWarmMeasure(n.EL(), warm, window, flows)

			var packets int64
			for _, f := range flows {
				packets += f.(*core.Sender).PacketsSent
			}
			return trims{
				uplinkPct: pct(float64(ft.UplinkTrims()), float64(packets)),
				totalPct:  pct(float64(ft.CollectStats().Trims), float64(packets)),
				util:      100 * utilization(g, 10e9),
			}
		})
	}
	res := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"load balancing", "uplink_trim%", "total_trim%", "util%"}}
	rowNames := []string{"sender-permuted paths", "switch per-packet ECMP"}
	for i, tr := range res {
		t.AddFloats(rowNames[i], tr.uplinkPct, tr.totalPct, tr.util)
	}
	r.AddTable("trim locality under permutation", t)
	r.Notef("paper shape: uplink trims ~0.01%% with source LB vs ~2.4%% with switch LB; source LB also buys a few %% utilization")
	source, atSwitch := res[0], res[1]
	r.Check("<= 0.05% of packets are trimmed on an uplink with source load balancing", source.uplinkPct <= 0.05,
		"%.4g%%", source.uplinkPct)
	r.Check("1-5% of packets are trimmed on an uplink with per-packet ECMP at the switches", atSwitch.uplinkPct >= 1 && atSwitch.uplinkPct <= 5,
		"%.4g%%", atSwitch.uplinkPct)
	r.Check("source load balancing buys utilization", source.util > atSwitch.util,
		"%.4g vs %.4g %%", source.util, atSwitch.util)
}
