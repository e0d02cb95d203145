package harness

import (
	"fmt"
	"math"
	"slices"
	"strconv"

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
	util, worst := make([]float64, len(protos)), make([]float64, len(protos)) // in protos order
	for i, g := range RunJobs(o, jobs) {
		d := distOf(g)
		util[i], worst[i] = 100*utilization(g, 10e9), d.Min()
		t.AddFloats(protos[i].name, util[i], worst[i], d.Quantile(0.1), d.Median(), d.Mean(), stats.JainIndex(g))
	}
	r.AddTable(fmt.Sprintf("permutation on %d-host FatTree", (k*k*k)/4), t)
	r.Notef("paper shape: NDP >=92%% with worst flow ~9G; MPTCP ~89%%; DCTCP/DCQCN ~40%% with <1G stragglers from ECMP collisions")
	r.Check("NDP's utilization is >= 92% and its worst flow >= 9 Gb/s", util[0] >= 92 && worst[0] >= 9,
		"%.4g%%, %.4g Gb/s", util[0], worst[0])
	r.Check("utilization is ordered NDP >= MPTCP > DCTCP > DCQCN", util[0] >= util[1] && util[1] > util[2] && util[2] > util[3],
		"%s %%", f4s(util...))
}

// fig15 measures FCTs of repeated 90KB transfers between two otherwise-idle
// hosts while every other host sources four long-running background flows.
// One job per transport.
func fig15(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	deadline := sim.Time(o.pick(15, 30, 60)) * sim.Millisecond
	const probeSrc = 0

	protos := contenders(FatTreeBuilder(k), 9000, "NDP", "DCTCP", "DCQCN", "MPTCP")
	jobs := make([]Job[*stats.Dist], len(protos))
	for i, p := range protos {
		jobs[i] = NewJob("fig15/"+p.name, o.Seed, func(seed uint64) *stats.Dist {
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
			fcts := &stats.Dist{}
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
			return fcts
		})
	}

	t := &stats.Table{Header: []string{"protocol", "p50_ms", "p90_ms", "p99_ms", "n"}}
	p50, p99 := make([]float64, len(protos)), make([]float64, len(protos)) // in protos order
	for i, fcts := range RunJobs(o, jobs) {
		p50[i], p99[i] = fcts.Median(), fcts.Quantile(0.99)
		t.AddRow(protos[i].name, f4(p50[i]), f4(fcts.Quantile(0.9)), f4(p99[i]), fmt.Sprint(fcts.N()))
	}
	r.AddTable("90KB probe FCTs under background load", t)
	r.Notef("paper shape: NDP ~3x better than DCTCP at the median, ~4x at p99; DCQCN slightly worse than DCTCP; MPTCP ~10x worse")
	r.Check("NDP's median FCT is below DCTCP's", 0 < p50[0] && p50[0] < p50[1], "NDP/DCTCP %.4g", p50[0]/p50[1])
	r.Check("NDP's p99 FCT is <= 1/4 of DCTCP's", 4*p99[0] <= p99[1], "NDP/DCTCP %.4g", p99[0]/p99[1])
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

	type fct struct {
		first, last sim.Time
		all         bool // every sender finished
	}
	optimal := make([]sim.Time, len(fanins))
	var jobs []Job[fct]
	seeds := SweepSeeds(o.Seed, len(fanins))
	for fi, nsend := range fanins {
		optimal[fi] = sim.FromSeconds(float64(nsend) * size * 8 / 10e9)
		for _, p := range protos {
			jobs = append(jobs, NewJob(fmt.Sprintf("fig16/%d/%s", nsend, p.name), seeds[fi], func(seed uint64) fct {
				n := p.build(seed)
				defer n.Close()
				in := startIncast(n, 0, workload.IncastSenders(0, nsend, hosts), size)
				n.EL().RunUntil(optimal[fi]*20 + 500*sim.Millisecond)
				return fct{first: in.first, last: in.last, all: in.done == nsend}
			}))
		}
	}

	t := &stats.Table{Header: []string{"senders", "optimal_ms", "protocol", "first_ms", "last_ms"}}
	var tight, mptcp []float64 // last over optimal, +Inf when a sender never finished
	for i, f := range RunJobs(o, jobs) {
		fi, name := i/len(protos), protos[i%len(protos)].name
		t.AddRow(fmt.Sprint(fanins[fi]), f4(optimal[fi].Millis()), name, f4(f.first.Millis()), f4(f.last.Millis()))
		over := math.Inf(1)
		if f.all {
			over = float64(f.last) / float64(optimal[fi])
		}
		switch name {
		case "NDP", "DCQCN":
			tight = append(tight, over)
		case "MPTCP":
			mptcp = append(mptcp, over)
		}
	}
	r.AddTable("450KB incast completion", t)
	r.Notef("paper shape: NDP/DCQCN ~1%% over optimal and tight (last <= 1.2x first); DCTCP ~5%% with up to 7x spread; MPTCP erratic")
	r.Check("NDP's and DCQCN's last flow finishes within 2% of optimal", slices.Max(tight) <= 1.02,
		"last/optimal %s", f4s(tight...))
	r.Check("MPTCP's last flow takes >= 2x optimal", slices.Min(mptcp) >= 2, "last/optimal %s", f4s(mptcp...))
}

func f4(v float64) string { return fmt.Sprintf("%.4g", v) }

// f4s renders numbers to four significant digits, comma-separated, into
// one buffer: a claim's Got.
func f4s(vs ...float64) string {
	b := make([]byte, 0, 8*len(vs))
	for i, v := range vs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendFloat(b, v, 'g', 4, 64)
	}
	return string(b)
}

// pairwise reports whether ok holds for every adjacent pair of xs.
func pairwise(xs []float64, ok func(prev, next float64) bool) bool {
	for i := 1; i < len(xs); i++ {
		if !ok(xs[i-1], xs[i]) {
			return false
		}
	}
	return true
}

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
	var fill, low, jumbo, small []float64 // 8pkt_9K from IW 20; the 9K columns up to IW 10; 8pkt at 9K and 1.5K
	smallBelow := true
	for i, iw := range iws {
		u := utils[i*len(bufs) : (i+1)*len(bufs)] // in bufs order
		t.AddFloats(fmt.Sprint(iw), u...)
		if iw >= 20 {
			fill = append(fill, u[1])
		}
		if iw <= 10 {
			low = append(low, u[:3]...)
		}
		jumbo, small = append(jumbo, u[1]), append(small, u[3])
		smallBelow = smallBelow && u[3] < u[1]
	}
	r.AddTable("permutation utilization (%)", t)
	r.Notef("paper shape: IW~20 needed to fill the network; 8pkt buffers >=95%%, 6pkt ~90%%; very large IW slightly hurts; 1.5K MTU needs IW~30")
	r.Check("8pkt_9K reaches >= 95% from IW 20", slices.Min(fill) >= 95, "%s %%", f4s(fill...))
	r.Check("every 9K buffer stays below 90% up to IW 10", slices.Max(low) < 90, "%s %%", f4s(low...))
	r.Check("8pkt_1.5K is below 8pkt_9K at every IW", smallBelow, "%s vs %s %%", f4s(small...), f4s(jumbo...))
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

	// The claims read the long flow from 1 ms after the incast starts: its
	// minimum, its mean, and the bins where it stalled while the incast ran
	// (in protos order: DCTCP, DCQCN, NDP).
	after := int(incastAt/bin) + 1
	minAfter, meanAfter, stalls := make([]float64, len(protos)), make([]float64, len(protos)), make([]int, len(protos))
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
		minAfter[i] = math.Inf(1)
		for bi := 0; bi < nbins; bi++ {
			t.AddFloats(fmt.Sprint(bi), at(long, bi), at(in, bi))
			if bi >= after {
				minAfter[i] = min(minAfter[i], at(long, bi))
				meanAfter[i] += at(long, bi)
				if at(long, bi) == 0 && at(in, bi) > 0 {
					stalls[i]++
				}
			}
		}
		meanAfter[i] /= float64(nbins - after)
		r.AddTable(protos[i].name+fmt.Sprintf(" (incast of %d x 900KB at t=%dms)", nIncast, incastAt/sim.Millisecond), t)
	}
	r.Notef("paper shape: DCTCP: both dip and recover slowly; DCQCN: incast finishes fast but PFC pauses batter the long flow; NDP: <1ms dip then full recovery")
	r.Check("NDP's long flow keeps >= 9 Gb/s in every bin from 1 ms after the incast starts", minAfter[2] >= 9,
		"min %.4g Gb/s", minAfter[2])
	r.Check("DCQCN's long flow stalls at 0 in at least one bin while the incast runs", stalls[1] >= 1,
		"%d bins at 0", stalls[1])
	r.Check("DCTCP's long flow averages less than NDP's from 1 ms after the incast starts", meanAfter[0] < meanAfter[2],
		"%.4g vs %.4g Gb/s", meanAfter[0], meanAfter[2])
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
	// The claims read the worst cells: overhead and completion, retransmissions
	// per packet, and bounces per packet at 10 and 50 senders.
	complete := true
	var worstOver, worstRtx, bounced float64
	for fi, nsend := range fanins {
		overRow := Row{fmt.Sprint(nsend)}
		rtxRow := Row{fmt.Sprint(nsend)}
		for ii, iw := range iws {
			p := points[fi*len(iws)+ii]
			cell := f4(p.overPct)
			if p.incomplete {
				cell += "(!)"
			}
			overRow = append(overRow, cell)
			rtxRow = append(rtxRow, f4(p.nackPerPkt), f4(p.bouncePerPkt))
			if nsend != 1 || iw != 1 { // one packet in flight cannot fill the link
				complete = complete && !p.incomplete
				worstOver = max(worstOver, p.overPct)
			}
			worstRtx = max(worstRtx, p.nackPerPkt+p.bouncePerPkt)
			if nsend == 10 || nsend == 50 {
				bounced = max(bounced, p.bouncePerPkt)
			}
		}
		over.AddRow(overRow...)
		rtx.AddRow(rtxRow...)
	}
	r.AddTable("last-flow completion overhead over optimal", over)
	r.AddTable("retransmissions per packet, by mechanism", rtx)
	r.Notef("paper shape: overhead within a few %%; NACKs dominate small incasts, return-to-sender takes over above ~100 senders; mean rtx/packet ~<=1")
	r.Check("every incast but 1 sender at IW 1 completes within 5% of optimal", complete && worstOver <= 5,
		"worst %.4g%% over, every sender finished: %v", worstOver, complete)
	r.Check("<= 1 retransmission per packet in every cell", worstRtx <= 1, "worst %.4g", worstRtx)
	r.Check("NACKs alone at 10 and 50 senders, no return-to-sender", bounced == 0, "%.4g bounces per packet", bounced)
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
	fair := res[0]
	fromA := fair.flows[:4]
	r.Check("with the fair pull queue each of A's four flows gets 2-3 Gb/s", slices.Min(fromA) >= 2 && slices.Max(fromA) <= 3,
		"%s Gb/s", f4s(fromA...))
	r.Check("with the fair pull queue F->E gets >= 7 Gb/s and both links carry >= 9.5",
		fair.flows[4] >= 7 && fair.fromA >= 9.5 && fair.toE >= 9.5,
		"F->E %.4g, from A %.4g, to E %.4g Gb/s", fair.flows[4], fair.fromA, fair.toE)
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
	util, worst := make([]float64, len(protos)), make([]float64, len(protos)) // in protos order
	for i, g := range RunJobs(o, jobs) {
		d := distOf(g)
		util[i], worst[i] = 100*utilization(g, 10e9), d.Min()
		t.AddFloats(protos[i].name, util[i], worst[i], d.Quantile(0.05), d.Quantile(0.1), d.Median())
	}
	r.AddTable("permutation with one agg->core link at 1Gb/s", t)
	r.Notef("paper shape: NDP and MPTCP route around the failure; NDP without the path penalty leaves ~15 flows near 3G; DCTCP's worst flow ~0.4G")
	r.Check("utilization is ordered NDP >= MPTCP > DCTCP", util[0] >= util[2] && util[2] > util[3],
		"%.4g / %.4g / %.4g %%", util[0], util[2], util[3])
	r.Check("DCTCP's worst flow gets <= 1 Gb/s while NDP's gets >= 4", worst[3] <= 1 && worst[0] >= 4,
		"%.4g vs %.4g Gb/s", worst[3], worst[0])
}
