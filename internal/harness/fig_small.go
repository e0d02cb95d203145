package harness

import (
	"fmt"

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
	for fi, n := range flowCounts {
		ndp, cpCell := cells[fi], cells[len(flowCounts)+fi]
		t.AddFloats(fmt.Sprint(n), ndp.mean, ndp.worst, cpCell.mean, cpCell.worst)
	}
	r.AddTable("percent of ideal fair goodput", t)
	r.Notef("paper shape: CP mean decays with flow count and its worst-10%% collapses (phase effects); NDP stays high and fair")
}

// fig4 reproduces the delivery-latency CDF (first send to ACK at sender)
// for permutation, random, and 100:1 incasts of 135KB and 1350KB. One job
// per traffic scenario.
func fig4(o Options, r *Result) {
	k := o.pick(4, 8, 12)
	runDur := sim.Time(o.pick(5, 10, 20)) * sim.Millisecond

	// Each scenario launches its flows on a fresh network and returns them
	// with the deadline to run until; every sender gets the latency hook.
	scenario := func(label string, launch func(n Net, seed uint64) ([]Flow, sim.Time)) Job[Row] {
		return NewJob("fig4/"+label, o.Seed, func(seed uint64) Row {
			n := DefaultNDPTransport(9000).Build(FatTreeBuilder(k), topo.Config{Seed: seed})
			defer n.Close()
			var lat stats.Dist
			hook := func(d sim.Time) { lat.AddTime(d) }
			flows, deadline := launch(n, seed)
			for _, f := range flows {
				f.(*core.Sender).OnPacketLatency = hook
			}
			n.EL().RunUntil(deadline)
			return Row{label, f4(lat.Quantile(0.1)), f4(lat.Median()), f4(lat.Quantile(0.9)),
				f4(lat.Quantile(0.99)), f4(lat.Max())}
		})
	}

	jobs := []Job[Row]{
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
	for _, row := range RunJobs(o, jobs) {
		t.AddRow(row...)
	}
	r.AddTable("per-packet delivery latency (first send -> ACK)", t)
	r.Notef("paper shape: permutation/random medians ~100us at full load; incast tails bounded (no RTO cliffs)")
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
	for _, v := range variants {
		l := hostmodel.RPCLatency(netRTT, v.rounds, v.d)
		t.AddFloats(v.name, l.Micros(), float64(l)/float64(ndp))
	}
	r.AddTable("1KB RPC latency", t)
	r.Notef("raw wire request+response: %v; paper shape: TFO ~4x and TCP ~5x NDP with sleep states, ~2x/~3x without", netRTT)
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
	}
	r.AddTable("7:1 incast completion time", t)
	r.Notef("paper shape: NDP within ~5%% of optimal with p90~median; TCP ~4x slower, p90 RTO-dominated")
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
	for i, iw := range iws {
		t.AddFloats(fmt.Sprint(iw), res[2*i], res[2*i+1])
	}
	r.AddTable("throughput vs initial window", t)
	r.Notef("paper shape: simulation saturates near IW=15; the prototype's host delays push the knee to ~25")
}

// fig12 measures actual PULL spacing under the empirical jitter model for
// 1500B and 9000B packets. One job per MTU.
func fig12(o Options, r *Result) {
	mtus := []int{1500, 9000}
	jobs := make([]Job[Row], len(mtus))
	for i, mtu := range mtus {
		mtu := mtu
		jobs[i] = NewJob(fmt.Sprintf("fig12/mtu%d", mtu), o.Seed, func(seed uint64) Row {
			tr := DefaultNDPTransport(mtu)
			tr.Host.PullJitter = hostmodel.PullJitter(mtu)
			n := tr.Build(BackToBackBuilder(), topo.Config{Seed: seed}).(*NDPNet)
			defer n.Close()
			var gaps stats.Dist
			n.Stacks[1].OnPullGap(func(g sim.Time) { gaps.AddTime(g) })
			n.StartFlow(0, 1, int64(mtu)*2000, StartOpts{})
			n.EL().RunUntil(sim.Second)
			target := sim.TransmissionTime(mtu+fabric.HeaderSize, 10e9)
			return Row{fmt.Sprint(mtu), f4(target.Micros()),
				f4(gaps.Quantile(0.1)), f4(gaps.Median()), f4(gaps.Quantile(0.9)), f4(gaps.Quantile(0.99))}
		})
	}

	t := &stats.Table{Header: []string{"mtu", "target_us", "p10_us", "p50_us", "p90_us", "p99_us"}}
	for _, row := range RunJobs(o, jobs) {
		t.AddRow(row...)
	}
	r.AddTable("measured PULL spacing", t)
	r.Notef("paper shape: medians at the 1.2us/7.2us targets, visibly more variance at 1500B")
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
	for i, size := range sizes {
		t.AddFloats(fmt.Sprint(size/1000), res[2*i], res[2*i+1])
	}
	r.AddTable("200:1 incast, last-flow completion", t)
	r.Notef("paper shape: no discernible difference between perfect and measured pull spacing")
}
