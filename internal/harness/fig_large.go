package harness

import (
	"fmt"

	"ndp/internal/core"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
)

func init() {
	run("fig14", "Per-flow throughput under a permutation traffic matrix", fig14)
	run("fig15", "90KB FCTs with random background load", fig15)
	run("fig16", "Incast completion time vs number of senders", fig16)
	run("fig17", "Permutation utilization vs IW and switch buffer size", fig17)
	run("fig19", "Collateral damage of a 64:1 incast on a neighbouring long flow", fig19)
	run("fig20", "Huge-incast overhead and retransmission mechanisms", fig20)
	run("fig21", "Sender-limited traffic and pull-queue fair queuing", fig21)
	run("fig22", "Permutation with a degraded 1Gb/s core link", fig22)
}

// fig14 reports per-flow throughput statistics for the permutation matrix.
// One job per transport; all four share one seed so they race on the same
// permutation.
func fig14(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(6, 10, 20)) * sim.Millisecond

	protos := contenders(FatTreeBuilder(k), 9000, "NDP", "MPTCP", "DCTCP", "DCQCN")
	jobs := make([]Job[[]float64], len(protos))
	for i, p := range protos {
		jobs[i] = NewJob("fig14/"+p.name, o.Seed, func(seed uint64) []float64 {
			return permGoodput(p.build(seed), seed, warm, window)
		})
	}

	t := &stats.Table{Header: []string{"protocol", "util%", "min_gbps", "p10_gbps", "p50_gbps", "mean_gbps", "jain"}}
	for i, g := range RunJobs(o, jobs) {
		d := distOf(g)
		t.AddFloats(protos[i].name, 100*utilization(g, 10e9),
			d.Min(), d.Quantile(0.1), d.Median(), d.Mean(), stats.JainIndex(g))
	}
	r.AddTable(fmt.Sprintf("permutation on %d-host FatTree", (k*k*k)/4), t)
	r.Notef("paper shape: NDP >=92%% with worst flow ~9G; MPTCP ~89%%; DCTCP/DCQCN ~40%% with <1G stragglers from ECMP collisions")
}

// fig15 measures FCTs of repeated 90KB transfers between two otherwise-idle
// hosts while every other host sources four long-running background flows.
// One job per transport.
func fig15(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	deadline := sim.Time(o.pick(15, 30, 60)) * sim.Millisecond
	const probeSrc = 0

	protos := contenders(FatTreeBuilder(k), 9000, "NDP", "DCTCP", "DCQCN", "MPTCP")
	jobs := make([]Job[Row], len(protos))
	for i, p := range protos {
		jobs[i] = NewJob("fig15/"+p.name, o.Seed, func(seed uint64) Row {
			n := p.build(seed)
			defer n.Close()
			hosts := n.Cluster().NumHosts()
			probeDst := hosts / 2
			rand := sim.NewRand(seed + 3)
			for h := 0; h < hosts; h++ {
				if h == probeSrc || h == probeDst {
					continue
				}
				for c := 0; c < 4; c++ {
					d := rand.Intn(hosts)
					for d == h || d == probeSrc || d == probeDst {
						d = rand.Intn(hosts)
					}
					n.StartFlow(h, d, -1, StartOpts{})
				}
			}
			var fcts stats.Dist
			var start sim.Time
			var probe func()
			opts := StartOpts{OnDone: func(at sim.Time) {
				fcts.Add((at - start).Millis())
				probe()
			}}
			probe = func() {
				start = n.EL().Now()
				n.StartFlow(probeSrc, probeDst, 90_000, opts)
			}
			probe()
			n.EL().RunUntil(deadline)
			return Row{p.name, f4(fcts.Median()), f4(fcts.Quantile(0.9)), f4(fcts.Quantile(0.99)), fmt.Sprint(fcts.N())}
		})
	}

	t := &stats.Table{Header: []string{"protocol", "p50_ms", "p90_ms", "p99_ms", "n"}}
	for _, row := range RunJobs(o, jobs) {
		t.AddRow(row...)
	}
	r.AddTable("90KB probe FCTs under background load", t)
	r.Notef("paper shape: NDP ~3x better than DCTCP at the median, ~4x at p99; DCQCN slightly worse than DCTCP; MPTCP ~10x worse")
}

// fig16 sweeps incast fan-in with 450KB responses across the transports,
// reporting first- and last-flow completion times. One job per (fan-in,
// transport) pair; the four transports of a fan-in share that fan-in's
// derived seed.
func fig16(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	hosts := k * k * k / 4
	var fanins []int
	for _, n := range []int{8, 16, 64, 128, 256, 431} {
		if n <= hosts-1 {
			fanins = append(fanins, n)
		}
	}
	if o.Scale < 0.4 && len(fanins) > 3 {
		fanins = fanins[:3]
	}
	const size = 450_000

	protos := contenders(FatTreeBuilder(k), 9000, "NDP", "DCTCP", "MPTCP", "DCQCN")
	fineRTO := DefaultMPTCPTransport(9000) // fine-grained RTO per Vasudevan et al.
	fineRTO.Cfg.TCP.MinRTO = 2 * sim.Millisecond
	protos[2].build = on(fineRTO, FatTreeBuilder(k))

	var jobs []Job[Row]
	seeds := SweepSeeds(o.Seed, len(fanins))
	for fi, nsend := range fanins {
		optimal := sim.FromSeconds(float64(nsend) * size * 8 / 10e9)
		for _, p := range protos {
			jobs = append(jobs, NewJob(fmt.Sprintf("fig16/%d/%s", nsend, p.name), seeds[fi], func(seed uint64) Row {
				n := p.build(seed)
				defer n.Close()
				in := startIncast(n, 0, workload.IncastSenders(0, nsend, hosts), size)
				n.EL().RunUntil(optimal*20 + 500*sim.Millisecond)
				return Row{fmt.Sprint(nsend), f4(optimal.Millis()), p.name, f4(in.first.Millis()), f4(in.last.Millis())}
			}))
		}
	}

	t := &stats.Table{Header: []string{"senders", "optimal_ms", "protocol", "first_ms", "last_ms"}}
	for _, row := range RunJobs(o, jobs) {
		t.AddRow(row...)
	}
	r.AddTable("450KB incast completion", t)
	r.Notef("paper shape: NDP/DCQCN ~1%% over optimal and tight (last <= 1.2x first); DCTCP ~5%% with up to 7x spread; MPTCP erratic")
}

func f4(v float64) string { return fmt.Sprintf("%.4g", v) }

// fig17 sweeps initial window against switch buffer configurations on the
// permutation matrix. One job per (IW, buffer) cell; every cell shares the
// experiment seed so all cells race on the same permutation.
func fig17(o Options, r *Result) {
	k := o.pick(4, 8, 8)
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(5, 8, 15)) * sim.Millisecond
	iws := []int{5, 10, 15, 20, 25, 30, 40}
	if o.Scale < 0.4 {
		iws = []int{10, 20, 30}
	}
	type bufCfg struct {
		name    string
		mtu     int
		packets int
	}
	bufs := []bufCfg{
		{"6pkt_9K", 9000, 6},
		{"8pkt_9K", 9000, 8},
		{"10pkt_9K", 9000, 10},
		{"8pkt_1.5K", 1500, 8},
	}

	var jobs []Job[float64]
	for _, iw := range iws {
		for _, b := range bufs {
			iw, b := iw, b
			jobs = append(jobs, NewJob(fmt.Sprintf("fig17/iw%d/%s", iw, b.name), o.Seed,
				func(seed uint64) float64 {
					tr := DefaultNDPTransport(b.mtu)
					tr.Switch = core.SwitchConfig{DataCapPackets: b.packets, HeaderCapBytes: b.packets * b.mtu, HeaderWRR: 10}
					tr.Host.IW = iw
					n := tr.Build(FatTreeBuilder(k), topo.Config{Seed: seed})
					return 100 * utilization(permGoodput(n, seed, warm, window), 10e9)
				}))
		}
	}
	utils := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"IW", "6pkt_9K%", "8pkt_9K%", "10pkt_9K%", "8pkt_1.5K%"}}
	for i, iw := range iws {
		row := Row{fmt.Sprint(iw)}
		for j := range bufs {
			row = append(row, f4(utils[i*len(bufs)+j]))
		}
		t.AddRow(row...)
	}
	r.AddTable("permutation utilization (%)", t)
	r.Notef("paper shape: IW~20 needed to fill the network; 8pkt buffers >=95%%, 6pkt ~90%%; very large IW slightly hurts; 1.5K MTU needs IW~30")
}

// fig19 runs a long flow to one host while a 64:1 incast hits its ToR
// neighbour, and reports goodput over time for both. One job per transport.
func fig19(o Options, r *Result) {
	const (
		bin        = sim.Millisecond
		incastAt   = 10 * sim.Millisecond
		endAt      = 45 * sim.Millisecond
		incastSize = 900_000
	)
	nIncast := o.pick(16, 32, 64)

	type series struct{ long, in *stats.TimeSeries }
	protos := contenders(FatTreeBuilder(4), 9000, "DCTCP", "DCQCN", "NDP")
	jobs := make([]Job[series], len(protos))
	for i, p := range protos {
		jobs[i] = NewJob("fig19/"+p.name, o.Seed, func(seed uint64) series {
			res := series{long: stats.NewTimeSeries(bin), in: stats.NewTimeSeries(bin)}
			n := p.build(seed)
			defer n.Close()
			el := n.EL()
			n.StartFlow(12, 0, -1, StartOpts{OnData: func(b int64) { res.long.Record(el.Now(), b) }})
			el.Schedule(incastAt, &lateIncast{n: n, senders: nIncast, size: incastSize,
				opts: StartOpts{OnData: func(b int64) { res.in.Record(el.Now(), b) }}}, 0)
			el.RunUntil(endAt)
			return res
		})
	}

	for i, res := range RunJobs(o, jobs) {
		t := &stats.Table{Header: []string{"t_ms", "long_gbps", "incast_gbps"}}
		long := res.long.RateGbps()
		in := res.in.RateGbps()
		nbins := len(long)
		if len(in) > nbins {
			nbins = len(in)
		}
		at := func(xs []float64, i int) float64 {
			if i < len(xs) {
				return xs[i]
			}
			return 0
		}
		for bi := 0; bi < nbins; bi++ {
			t.AddFloats(fmt.Sprint(bi), at(long, bi), at(in, bi))
		}
		r.AddTable(protos[i].name+fmt.Sprintf(" (incast of %d x 900KB at t=%dms)", nIncast, incastAt/sim.Millisecond), t)
	}
	r.Notef("paper shape: DCTCP: both dip and recover slowly; DCQCN: incast finishes fast but PFC pauses batter the long flow; NDP: <1ms dip then full recovery")
}

// lateIncast starts fig19's incast into host 1 when it fires (sim.Handler):
// senders flows of size bytes from hosts 2, 3, … in turn.
type lateIncast struct {
	n       Net
	senders int
	size    int64
	opts    StartOpts
}

func (l *lateIncast) OnEvent(uint64) {
	hosts := l.n.Cluster().NumHosts()
	for i := 0; i < l.senders; i++ {
		l.n.StartFlow(2+(i%(hosts-2)), 1, l.size, l.opts)
	}
}

// fig20 measures huge-incast overhead versus the best possible completion
// time, and the retransmission mechanisms (NACK vs return-to-sender). One
// job per (fan-in, IW) point; the three IWs of a fan-in share its seed.
func fig20(o Options, r *Result) {
	k := o.pick(8, 16, 16)
	if o.Full {
		k = 32
	}
	hosts := k * k * k / 4
	var fanins []int
	for _, n := range []int{1, 10, 50, 100, 400, 1000, 4000, 8000} {
		if n <= hosts-1 {
			fanins = append(fanins, n)
		}
	}
	if o.Scale < 0.4 && len(fanins) > 4 {
		fanins = fanins[:4]
	}
	const size = 270_000 // 30 packets
	iws := []int{23, 10, 1}

	type point struct {
		overPct      float64
		incomplete   bool
		nackPerPkt   float64
		bouncePerPkt float64
	}
	var jobs []Job[point]
	seeds := SweepSeeds(o.Seed, len(fanins))
	for fi, nsend := range fanins {
		for _, iw := range iws {
			nsend, iw := nsend, iw
			jobs = append(jobs, NewJob(fmt.Sprintf("fig20/%d/iw%d", nsend, iw), seeds[fi],
				func(seed uint64) point {
					tr := DefaultNDPTransport(9000)
					tr.Host.IW = iw
					n := tr.Build(FatTreeBuilder(k), topo.Config{Seed: seed})
					defer n.Close()
					in := startIncast(n, 0, workload.IncastSenders(0, nsend, hosts), size)
					optimal := sim.FromSeconds(float64(nsend) * size * 8 / 10e9)
					n.EL().RunUntil(optimal*3 + sim.Second)
					var nacks, bounces, packets int64
					for _, f := range in.flows {
						s := f.(*core.Sender)
						nacks += s.RtxFromNack
						bounces += s.RtxFromBounce
						packets += s.TotalPackets()
					}
					return point{
						overPct:      pct(float64(in.last-optimal), float64(optimal)),
						incomplete:   in.done != nsend,
						nackPerPkt:   float64(nacks) / float64(packets),
						bouncePerPkt: float64(bounces) / float64(packets),
					}
				}))
		}
	}
	points := RunJobs(o, jobs)

	over := &stats.Table{Header: []string{"senders", "iw23_over%", "iw10_over%", "iw1_over%"}}
	rtx := &stats.Table{Header: []string{"senders", "iw23_nack", "iw23_bounce", "iw10_nack", "iw10_bounce", "iw1_nack", "iw1_bounce"}}
	for fi, nsend := range fanins {
		overRow := Row{fmt.Sprint(nsend)}
		rtxRow := Row{fmt.Sprint(nsend)}
		for ii := range iws {
			p := points[fi*len(iws)+ii]
			cell := f4(p.overPct)
			if p.incomplete {
				cell += "(!)"
			}
			overRow = append(overRow, cell)
			rtxRow = append(rtxRow, f4(p.nackPerPkt), f4(p.bouncePerPkt))
		}
		over.AddRow(overRow...)
		rtx.AddRow(rtxRow...)
	}
	r.AddTable("last-flow completion overhead over optimal", over)
	r.AddTable("retransmissions per packet, by mechanism", rtx)
	r.Notef("paper shape: overhead within a few %%; NACKs dominate small incasts, return-to-sender takes over above ~100 senders; mean rtx/packet ~<=1")
	if !o.Full {
		r.Notef("run with -full for the paper's 8192-host (k=32) FatTree")
	}
}

// fig21 checks receiver pull-queue fair queuing with a sender-limited
// source: A sends to B,C,D,E while F also sends to E. Two jobs: the paper
// behaviour and the FIFO ablation.
func fig21(o Options, r *Result) {
	type result struct {
		flows      []float64
		fromA, toE float64
	}
	runOne := func(seed uint64, fifo bool) result {
		tr := DefaultNDPTransport(9000)
		tr.Host.PullFIFO = fifo
		n := tr.Build(TwoTierBuilder(1, 6, 0), topo.Config{Seed: seed})
		defer n.Close()
		// A=0 -> B,C,D(1,2,3) and E(4); F=5 -> E(4).
		var flows []Flow
		for _, dst := range []int{1, 2, 3, 4} {
			flows = append(flows, n.StartFlow(0, dst, -1, StartOpts{}))
		}
		flows = append(flows, n.StartFlow(5, 4, -1, StartOpts{}))
		g := runWarmMeasure(n.EL(), 3*sim.Millisecond, sim.Time(o.pick(5, 10, 20))*sim.Millisecond, flows)
		return result{flows: g, fromA: g[0] + g[1] + g[2] + g[3], toE: g[3] + g[4]}
	}
	res := RunJobs(o, []Job[result]{
		NewJob("fig21/fair", o.Seed, func(seed uint64) result { return runOne(seed, false) }),
		NewJob("fig21/fifo", o.Seed, func(seed uint64) result { return runOne(seed, true) }),
	})

	names := []string{"A->B", "A->C", "A->D", "A->E", "F->E"}
	labels := []string{"fair pull queue (paper behaviour)", "ablation: FIFO pull queue"}
	for i, g := range res {
		t := &stats.Table{Header: []string{"flow", "gbps"}}
		for fi, name := range names {
			t.AddFloats(name, g.flows[fi])
		}
		t.AddFloats("total from A", g.fromA)
		t.AddFloats("total to E", g.toE)
		r.AddTable(labels[i], t)
	}
	r.Notef("paper shape: A's four flows split A's link ~2.5G each; F fills the rest of E's link (~7.5G); both bottleneck links ~saturated")
}

// fig22 degrades one core<->agg link to 1Gb/s and compares per-flow
// throughput for NDP (with and without the path penalty), MPTCP and DCTCP.
// One job per variant.
func fig22(o Options, r *Result) {
	k := o.pick(4, 8, 8)
	warm := 3 * sim.Millisecond
	window := sim.Time(o.pick(6, 10, 20)) * sim.Millisecond

	degraded := func(c topo.Config) topo.Cluster {
		ft := topo.NewFatTree(k, c)
		ft.DegradeLink(0, 0, 1e9)
		return ft
	}
	// The NDP variants keep the switch-queue seed their table was pinned
	// with, which is not the one NDPTransport derives.
	ndp := func(noPenalty bool) func(seed uint64) Net {
		return func(seed uint64) Net {
			hcfg := core.DefaultConfig()
			hcfg.DisablePathPenalty = noPenalty
			queue := core.QueueFactory(core.DefaultSwitchConfig(9000), seed+41)
			return newNDPNet(degraded(topo.Config{Seed: seed, SwitchQueue: queue}), hcfg, seed)
		}
	}
	protos := append([]contender{{"NDP", ndp(false)}, {"NDP no path penalty", ndp(true)}},
		contenders(degraded, 9000, "MPTCP", "DCTCP")...)
	jobs := make([]Job[[]float64], len(protos))
	for i, p := range protos {
		jobs[i] = NewJob("fig22/"+p.name, o.Seed, func(seed uint64) []float64 {
			return permGoodput(p.build(seed), seed, warm, window)
		})
	}

	t := &stats.Table{Header: []string{"variant", "util%", "min_gbps", "p5_gbps", "p10_gbps", "p50_gbps"}}
	for i, g := range RunJobs(o, jobs) {
		d := distOf(g)
		t.AddFloats(protos[i].name, 100*utilization(g, 10e9), d.Min(), d.Quantile(0.05), d.Quantile(0.1), d.Median())
	}
	r.AddTable("permutation with one agg->core link at 1Gb/s", t)
	r.Notef("paper shape: NDP and MPTCP route around the failure; NDP without the path penalty leaves ~15 flows near 3G; DCTCP's worst flow ~0.4G")
}
