package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"ndp/internal/core"
	"ndp/internal/cp"
	"ndp/internal/fabric"
	"ndp/internal/hostmodel"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
)

func init() {
	run("fig2", "Collapse and phase problems with CP vs the NDP switch", fig2)
	run("fig4", "Delivery latency CDF under permutation/random/incast", fig4)
	run("fig8", "1KB RPC latency: NDP vs TCP Fast Open vs TCP", fig8)
	run("fig9", "7:1 incast on the 8-server two-tier testbed", fig9)
	run("fig10", "Receiver prioritization of a short flow over six long flows", fig10)
	run("fig11", "Throughput vs initial window, perfect vs experimental host", fig11)
	run("fig12", "PULL spacing distribution for 1500B and 9000B packets", fig12)
	run("fig13", "Incast FCT: perfect vs experimentally-jittered pulls", fig13)
}

// fig2 drives N unresponsive line-rate flows into one 10Gb/s egress through
// a single switch running either the NDP service model or vanilla CP, and
// reports percent of ideal fair goodput (mean and worst-10%). One job per
// (switch mode, flow count) cell.
func fig2(o Options, r *Result) {
	const mtu = 9000
	flowCounts := []int{1, 2, 5, 10, 20, 50, 100, 150, 200}
	if o.Scale < 0.99 {
		flowCounts = []int{1, 5, 20, 60}
	}

	type cell struct{ mean, worst float64 }
	var jobs []Job[cell]
	seeds := SweepSeeds(o.Seed, len(flowCounts))
	for mode := 0; mode < 2; mode++ { // 0 = NDP switch, 1 = CP switch
		modeName := "ndp"
		if mode == 1 {
			modeName = "cp"
		}
		for fi, n := range flowCounts {
			mode, n := mode, n
			jobs = append(jobs, NewJob(fmt.Sprintf("fig2/%s/%d", modeName, n), seeds[fi],
				func(seed uint64) cell {
					queue := cp.QueueFactory(8*mtu, 8*mtu+64*fabric.HeaderSize)
					if mode == 0 {
						queue = core.QueueFactory(core.DefaultSwitchConfig(mtu), seed+99)
					}
					mean, worst, _ := overloadRun(o, seed, n, queue)
					return cell{mean: mean, worst: worst}
				}))
		}
	}
	cells := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"flows", "ndp_mean%", "ndp_worst10%", "cp_mean%", "cp_worst10%"}}
	var ndpMean, ndpWorst, cpMean, cpWorst []float64 // by flow count; the first is 1
	for fi, n := range flowCounts {
		ndp, cpCell := cells[fi], cells[len(flowCounts)+fi]
		t.AddFloats(fmt.Sprint(n), ndp.mean, ndp.worst, cpCell.mean, cpCell.worst)
		ndpMean, ndpWorst = append(ndpMean, ndp.mean), append(ndpWorst, ndp.worst)
		cpMean, cpWorst = append(cpMean, cpCell.mean), append(cpWorst, cpCell.worst)
	}
	r.AddTable("percent of ideal fair goodput", t)
	r.Notef("paper shape: CP mean decays with flow count and its worst-10%% collapses (phase effects); NDP stays high and fair")
	r.Check("CP's mean never rises with the flow count", pairwise(cpMean, func(a, b float64) bool { return b <= a }),
		"CP mean %s %% of fair", f4s(cpMean...))
	from20 := slices.IndexFunc(flowCounts, func(n int) bool { return n >= 20 })
	r.Check("CP's worst 10% get <= 10% of fair from 20 flows up", slices.Max(cpWorst[from20:]) <= 10,
		"CP worst 10%% %s %%", f4s(cpWorst[from20:]...))
	r.Check("NDP's mean is >= 90% of fair at every flow count", slices.Min(ndpMean) >= 90,
		"NDP mean %s %%", f4s(ndpMean...))
	above := true
	for i := 1; i < len(flowCounts); i++ {
		above = above && ndpWorst[i] > cpWorst[i]
	}
	r.Check("with more than one flow, NDP's worst 10% are above CP's", above,
		"NDP %s %% vs CP %s %%", f4s(ndpWorst[1:]...), f4s(cpWorst[1:]...))
}

// fig4 reproduces the delivery-latency CDF (first send to ACK at sender)
// for permutation, random, and 100:1 incasts of 135KB and 1350KB. One job
// per traffic scenario.
func fig4(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	runDur := sim.Time(o.pick(5, 10, 20)) * sim.Millisecond

	// Each scenario launches its flows on a fresh network and returns them
	// with the deadline to run until; every sender gets the latency hook.
	// The job returns the table row's quantiles.
	var labels []string
	scenario := func(label string, launch func(n Net, seed uint64) ([]Flow, sim.Time)) Job[[]float64] {
		labels = append(labels, label)
		return NewJob("fig4/"+label, o.Seed, func(seed uint64) []float64 {
			n := DefaultNDPTransport(9000).Build(FatTreeBuilder(k), topo.Config{Seed: seed})
			defer n.Close()
			var lat stats.Dist
			hook := func(d sim.Time) { lat.AddTime(d) }
			flows, deadline := launch(n, seed)
			for _, f := range flows {
				f.(*core.Sender).OnPacketLatency = hook
			}
			n.EL().RunUntil(deadline)
			return []float64{lat.Quantile(0.1), lat.Median(), lat.Quantile(0.9), lat.Quantile(0.99), lat.Max()}
		})
	}

	jobs := []Job[[]float64]{
		scenario("permutation", func(n Net, seed uint64) ([]Flow, sim.Time) {
			return startMatrix(n, workload.Permutation(n.Cluster().NumHosts(), sim.NewRand(seed))), runDur
		}),
		scenario("random", func(n Net, seed uint64) ([]Flow, sim.Time) {
			return startMatrix(n, workload.RandomMatrix(n.Cluster().NumHosts(), sim.NewRand(seed))), runDur
		}),
	}
	for _, size := range []int64{135_000, 1_350_000} {
		size := size
		jobs = append(jobs, scenario(fmt.Sprintf("incast %dKB", size/1000),
			func(n Net, seed uint64) ([]Flow, sim.Time) {
				hosts := n.Cluster().NumHosts()
				nsend := min(100, hosts-1)
				in := startIncast(n, 0, workload.IncastSenders(0, nsend, hosts), size)
				return in.flows, sim.FromSeconds(float64(nsend) * float64(size) * 8 / 10e9 * 3)
			}))
	}

	t := &stats.Table{Header: []string{"scenario", "p10_us", "p50_us", "p90_us", "p99_us", "max_us"}}
	var tail []float64 // max over p99, by incast
	for i, q := range RunJobs(o, jobs) {
		t.AddFloats(labels[i], q...)
		if strings.HasPrefix(labels[i], "incast") {
			tail = append(tail, q[4]/q[3])
		}
	}
	r.AddTable("per-packet delivery latency (first send -> ACK)", t)
	r.Notef("paper shape: permutation/random medians ~100us at full load; incast tails bounded (no RTO cliffs)")
	r.Check("every incast's max latency is <= 1.2x its p99: no RTO-length outlier", slices.Max(tail) <= 1.2,
		"max/p99 %s", f4s(tail...))
}

// fig8 measures the 1KB RPC latency of NDP against TCP Fast Open and TCP,
// with and without deep CPU sleep states. The wire part is simulated; the
// host costs come from internal/hostmodel (the paper's measured numbers),
// as documented in DESIGN.md. A single back-to-back simulation — no sweep.
func fig8(o Options, r *Result) {
	// Simulate the raw network request/response time over back-to-back
	// hosts using the NDP stack with no host delays.
	n := DefaultNDPTransport(9000).Build(BackToBackBuilder(), topo.Config{Seed: o.Seed})
	defer n.Close()
	var netRTT sim.Time
	start := n.EL().Now()
	n.StartFlow(0, 1, 1000, StartOpts{OnDone: func(sim.Time) {
		n.StartFlow(1, 0, 1000, StartOpts{OnDone: func(at sim.Time) { netRTT = at - start }})
	}})
	n.EL().RunUntil(10 * sim.Millisecond)

	t := &stats.Table{Header: []string{"stack", "latency_us", "vs_ndp"}}
	ndp := hostmodel.RPCLatency(netRTT, 1, hostmodel.NDPHost())
	variants := []struct {
		name   string
		rounds int
		d      hostmodel.Delays
	}{
		{"NDP", 1, hostmodel.NDPHost()},
		{"TFO (no sleep)", 1, hostmodel.TCPHostNoSleep()},
		{"TCP (no sleep)", 2, hostmodel.TCPHostNoSleep()},
		{"TFO", 1, hostmodel.TCPHostDeepSleep()},
		{"TCP", 2, hostmodel.TCPHostDeepSleep()},
	}
	vsNDP := make([]float64, len(variants))
	for i, v := range variants {
		l := hostmodel.RPCLatency(netRTT, v.rounds, v.d)
		vsNDP[i] = float64(l) / float64(ndp)
		t.AddFloats(v.name, l.Micros(), vsNDP[i])
	}
	r.AddTable("1KB RPC latency", t)
	r.Notef("raw wire request+response: %v; paper shape: TFO ~4x and TCP ~5x NDP with sleep states, ~2x/~3x without", netRTT)
	r.Check("latency is ordered NDP < TFO (no sleep) < TCP (no sleep) < TFO < TCP",
		pairwise(vsNDP, func(a, b float64) bool { return a < b }), "vs NDP %s", f4s(vsNDP...))
	r.Check("TFO without sleep states is 1.5-2.5x NDP", vsNDP[1] >= 1.5 && vsNDP[1] <= 2.5, "%.4gx", vsNDP[1])
}

// fig9 runs the 7:1 incast of the NetFPGA testbed (4 ToRs x 2 hosts, 2
// spines) for NDP and TCP across response sizes, reporting median and p90
// last-flow completion over repeated runs. One job per (size, repetition,
// protocol); both protocols of a repetition share its seed.
func fig9(o Options, r *Result) {
	sizes := []int64{10_000, 100_000, 250_000, 500_000, 1_000_000}
	if o.Scale < 0.4 {
		sizes = []int64{10_000, 250_000, 1_000_000}
	}
	reps := o.pick(3, 5, 9)

	// TCP is Linux-like: MinRTO 200ms, handshake per request.
	protos := contenders(TwoTierBuilder(4, 2, 2), 9000, "NDP", "TCP")
	type fct struct {
		ms float64
		ok bool
	}
	var jobs []Job[fct]
	for _, size := range sizes {
		for rep := 0; rep < reps; rep++ {
			for _, p := range protos {
				size, p := size, p
				jobs = append(jobs, NewJob(fmt.Sprintf("fig9/%dKB/rep%d/%s", size/1000, rep, p.name), o.Seed+uint64(rep)*101,
					func(seed uint64) fct {
						n := p.build(seed)
						defer n.Close()
						in := startIncast(n, 0, workload.IncastSenders(0, 7, 8), size)
						n.EL().RunUntil(5 * sim.Second)
						return fct{ms: in.last.Millis(), ok: in.done == 7}
					}))
			}
		}
	}
	res := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"size_KB", "optimal_ms", "ndp_med_ms", "ndp_p90_ms", "tcp_med_ms", "tcp_p90_ms"}}
	var medOver, p90Over, tcpP90 []float64 // sizes above 10 KB
	for si, size := range sizes {
		row := []float64{sim.FromSeconds(7 * float64(size) * 8 / 10e9).Millis()}
		for pi := range protos {
			var d stats.Dist // over the repetitions whose seven flows all finished
			for rep := 0; rep < reps; rep++ {
				if f := res[(si*reps+rep)*len(protos)+pi]; f.ok {
					d.Add(f.ms)
				}
			}
			row = append(row, d.Median(), d.Quantile(0.9))
		}
		t.AddFloats(fmt.Sprintf("%d", size/1000), row...)
		if size > 10_000 {
			medOver = append(medOver, row[1]/row[0])
			p90Over = append(p90Over, row[2]/row[1])
			tcpP90 = append(tcpP90, row[4])
		}
	}
	r.AddTable("7:1 incast completion time", t)
	r.Notef("paper shape: NDP within ~5%% of optimal with p90~median; TCP ~4x slower, p90 RTO-dominated")
	r.Check("above 10 KB, NDP's median is within 5% of optimal and its p90 within 5% of the median",
		slices.Max(medOver) <= 1.05 && slices.Max(p90Over) <= 1.05,
		"median/optimal %s, p90/median %s", f4s(medOver...), f4s(p90Over...))
	r.Check("above 10 KB, TCP's p90 is at least one 200 ms MinRTO", slices.Min(tcpP90) >= 200,
		"TCP p90 %s ms", f4s(tcpP90...))
}

// fig10 measures the FCT of a 200KB flow to a host also receiving six long
// flows: idle vs receiver-prioritized vs unprioritized. One job per
// scenario.
func fig10(o Options, r *Result) {
	const short = 200_000
	runOne := func(seed uint64, background, prio bool) sim.Time {
		n := DefaultNDPTransport(9000).Build(FatTreeBuilder(4), topo.Config{Seed: seed})
		defer n.Close()
		if background {
			for i := 1; i <= 6; i++ {
				n.StartFlow(i, 0, 3_600_000, StartOpts{})
			}
		}
		var fct sim.Time
		start := n.EL().Now()
		n.StartFlow(7, 0, short, StartOpts{Priority: prio, OnDone: func(at sim.Time) { fct = at - start }})
		n.EL().RunUntil(100 * sim.Millisecond)
		return fct
	}
	res := RunJobs(o, []Job[sim.Time]{
		NewJob("fig10/idle", o.Seed, func(seed uint64) sim.Time { return runOne(seed, false, false) }),
		NewJob("fig10/prio", o.Seed, func(seed uint64) sim.Time { return runOne(seed, true, true) }),
		NewJob("fig10/noprio", o.Seed, func(seed uint64) sim.Time { return runOne(seed, true, false) }),
	})
	idle, with, without := res[0], res[1], res[2]
	t := &stats.Table{Header: []string{"scenario", "fct_us", "delta_vs_idle_us"}}
	t.AddFloats("idle", idle.Micros(), 0)
	t.AddFloats("with prioritization", with.Micros(), (with - idle).Micros())
	t.AddFloats("without prioritization", without.Micros(), (without - idle).Micros())
	r.AddTable("200KB flow vs six long flows", t)
	r.Notef("paper shape: prioritized FCT within ~50us of idle; unprioritized ~500us worse (1/7 share in the pull queue)")
	r.Check("the prioritized flow's delay over idle is <= 0.5x the unprioritized one's", 2*(with-idle) <= without-idle,
		"%.4g vs %.4g us", (with - idle).Micros(), (without - idle).Micros())
}

// fig11 sweeps the initial window on back-to-back hosts and reports
// throughput for the perfect host model vs the experimentally-measured one
// (extra processing delay and pull jitter). One job per (IW, host model).
func fig11(o Options, r *Result) {
	iws := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if o.Scale < 0.4 {
		iws = []int{1, 4, 16, 64}
	}
	const size = 9_000_000
	runOne := func(seed uint64, iw int, rxDelay sim.Time, jitter bool) float64 {
		tr := DefaultNDPTransport(9000)
		tr.Host.IW = iw
		tr.Host.RxDelay = rxDelay
		if jitter {
			tr.Host.PullJitter = hostmodel.PullJitter(9000)
		}
		// 25us link delay emulates the testbed's effective path+stack
		// latency so the saturation knee lands near the paper's IW~15.
		n := tr.Build(BackToBackBuilder(), topo.Config{Seed: seed, LinkDelay: 25 * sim.Microsecond})
		defer n.Close()
		var fct sim.Time
		start := n.EL().Now()
		n.StartFlow(0, 1, size, StartOpts{OnDone: func(at sim.Time) { fct = at - start }})
		n.EL().RunUntil(5 * sim.Second)
		if fct == 0 {
			return 0
		}
		return stats.Gbps(size, fct)
	}

	var jobs []Job[float64]
	for _, iw := range iws {
		iw := iw
		jobs = append(jobs,
			NewJob(fmt.Sprintf("fig11/iw%d/perfect", iw), o.Seed, func(seed uint64) float64 {
				return runOne(seed, iw, 20*sim.Microsecond, false)
			}),
			NewJob(fmt.Sprintf("fig11/iw%d/experimental", iw), o.Seed, func(seed uint64) float64 {
				return runOne(seed, iw, 56*sim.Microsecond, true)
			}))
	}
	res := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"IW_pkts", "perfect_gbps", "experimental_gbps"}}
	var perfectFrom16, expFrom64 []float64
	var perfect16, exp16 float64
	for i, iw := range iws {
		perfect, exp := res[2*i], res[2*i+1]
		t.AddFloats(fmt.Sprint(iw), perfect, exp)
		if iw == 16 {
			perfect16, exp16 = perfect, exp
		}
		if iw >= 16 {
			perfectFrom16 = append(perfectFrom16, perfect)
		}
		if iw >= 64 {
			expFrom64 = append(expFrom64, exp)
		}
	}
	r.AddTable("throughput vs initial window", t)
	r.Notef("paper shape: simulation saturates near IW=15; the prototype's host delays push the knee to ~25")
	r.Check("the perfect host reaches >= 9.5 Gb/s from IW 16", slices.Min(perfectFrom16) >= 9.5,
		"%s Gb/s", f4s(perfectFrom16...))
	r.Check("the experimental host is below the perfect one at IW 16 and >= 9.5 Gb/s from IW 64",
		exp16 < perfect16 && slices.Min(expFrom64) >= 9.5,
		"%.4g vs %.4g Gb/s at IW 16, %s from 64", exp16, perfect16, f4s(expFrom64...))
}

// fig12 measures actual PULL spacing under the empirical jitter model for
// 1500B and 9000B packets. One job per MTU.
func fig12(o Options, r *Result) {
	mtus := []int{1500, 9000}
	jobs := make([]Job[[]float64], len(mtus))
	for i, mtu := range mtus {
		mtu := mtu
		jobs[i] = NewJob(fmt.Sprintf("fig12/mtu%d", mtu), o.Seed, func(seed uint64) []float64 {
			tr := DefaultNDPTransport(mtu)
			tr.Host.PullJitter = hostmodel.PullJitter(mtu)
			n := tr.Build(BackToBackBuilder(), topo.Config{Seed: seed}).(*NDPNet)
			defer n.Close()
			var gaps stats.Dist
			n.Stacks[1].OnPullGap(func(g sim.Time) { gaps.AddTime(g) })
			n.StartFlow(0, 1, int64(mtu)*2000, StartOpts{})
			n.EL().RunUntil(sim.Second)
			target := sim.TransmissionTime(mtu+fabric.HeaderSize, 10e9)
			return []float64{target.Micros(),
				gaps.Quantile(0.1), gaps.Median(), gaps.Quantile(0.9), gaps.Quantile(0.99)}
		})
	}

	t := &stats.Table{Header: []string{"mtu", "target_us", "p10_us", "p50_us", "p90_us", "p99_us"}}
	var medOver, spread []float64 // p50/target and p90/p50, by MTU
	for i, q := range RunJobs(o, jobs) {
		t.AddFloats(fmt.Sprint(mtus[i]), q...)
		medOver, spread = append(medOver, q[2]/q[0]), append(spread, q[3]/q[2])
	}
	r.AddTable("measured PULL spacing", t)
	r.Notef("paper shape: medians at the 1.2us/7.2us targets, visibly more variance at 1500B")
	r.Check("both medians are within 10% of the target spacing", slices.Min(medOver) >= 0.9 && slices.Max(medOver) <= 1.1,
		"p50/target %s", f4s(medOver...))
	r.Check("1500B's p90/p50 is above 9000B's", spread[0] > spread[1], "%s", f4s(spread...))
}

// fig13 compares incast FCTs with perfect versus experimentally-jittered
// pull spacing: the difference should be negligible. One job per (size,
// jitter mode) cell.
func fig13(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	sizes := []int64{9_000, 27_000, 45_000, 90_000, 117_000}
	if o.Scale < 0.4 {
		sizes = []int64{9_000, 45_000, 117_000}
	}

	var jobs []Job[float64]
	for _, size := range sizes {
		for mode := 0; mode < 2; mode++ {
			size, mode := size, mode
			name := "perfect"
			if mode == 1 {
				name = "jittered"
			}
			jobs = append(jobs, NewJob(fmt.Sprintf("fig13/%dKB/%s", size/1000, name), o.Seed,
				func(seed uint64) float64 {
					tr := DefaultNDPTransport(9000)
					if mode == 1 {
						tr.Host.PullJitter = hostmodel.PullJitter(9000)
					}
					n := tr.Build(FatTreeBuilder(k), topo.Config{Seed: seed})
					defer n.Close()
					hosts := n.Cluster().NumHosts()
					in := startIncast(n, 0, workload.IncastSenders(0, min(200, hosts-1), hosts), size)
					n.EL().RunUntil(2 * sim.Second)
					return in.last.Millis()
				}))
		}
	}
	res := RunJobs(o, jobs)

	t := &stats.Table{Header: []string{"flow_KB", "perfect_ms", "jittered_ms"}}
	off := make([]float64, len(sizes)) // |jittered/perfect - 1|, in percent
	for i, size := range sizes {
		t.AddFloats(fmt.Sprint(size/1000), res[2*i], res[2*i+1])
		off[i] = math.Abs(pct(res[2*i+1], res[2*i]) - 100)
	}
	r.AddTable("200:1 incast, last-flow completion", t)
	r.Notef("paper shape: no discernible difference between perfect and measured pull spacing")
	r.Check("jittered pulls complete within 10% of perfect ones at every size", slices.Max(off) <= 10,
		"%s %% apart", f4s(off...))
}
