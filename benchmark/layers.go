package main

import (
	"fmt"
	"time"

	"ndp/internal/core"
	"ndp/internal/fabric"
	"ndp/internal/harness"
	"ndp/internal/sim"
	"ndp/internal/stats"
	"ndp/internal/topo"
	"ndp/internal/workload"
	"ndp/scenario"
)

// This file holds the layer drivers: micro-harnesses that call one layer's
// public API in a loop, so each rung of the cost ladder has a unit cost to
// multiply the traced counts by. Each driver runs five repetitions of at
// least driverRep (200 ms in all) and reports the fastest.

// driverRep is the minimum duration of one driver repetition.
var driverRep = 40 * time.Millisecond

const driverReps = 5

// nsPerOp sizes n, a multiple of chunk (the operations one pass of the
// driver's inner loop performs), so that loop(n) takes at least driverRep,
// then returns the fastest of driverReps runs in nanoseconds per operation.
func nsPerOp(chunk int, loop func(n int)) float64 {
	n := chunk
	for n < 64 {
		n *= 2
	}
	for {
		t0 := now()
		loop(n)
		if d := now().Sub(t0); d >= driverRep {
			break
		} else if d < driverRep/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	best := 0.0
	for rep := 0; rep < driverReps; rep++ {
		t0 := now()
		loop(n)
		if ns := float64(now().Sub(t0).Nanoseconds()) / float64(n); rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

type countHandler struct{ n uint64 }

func (h *countHandler) OnEvent(arg uint64) { h.n += arg }

// driveHeap is the hold model of the event heap: a standing population of
// depth events, each operation schedules one event a random offset ahead
// and executes the earliest.
func driveHeap(depth int) float64 {
	el := sim.NewEventList()
	r := sim.NewRand(1)
	h := &countHandler{}
	for i := 0; i < depth; i++ {
		el.Schedule(sim.Time(r.Intn(10_000))*sim.Nanosecond, h, 1)
	}
	return nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			el.ScheduleAfter(sim.Time(r.Intn(10_000))*sim.Nanosecond, h, 1)
			el.Step()
		}
	})
}

// driveTimerReset re-arms one restartable timer (every data packet of every
// transport resets an RTO timer).
func driveTimerReset() float64 {
	el := sim.NewEventList()
	tm := sim.NewTimer(el, func() {})
	return nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			tm.Reset(sim.Millisecond)
			if i%64 == 0 {
				el.RunUntil(el.Now() + sim.Microsecond)
			}
		}
	})
}

// ticker reschedules itself one lookahead ahead, so a two-list runner sees
// exactly one trivial event per list per window.
type ticker struct {
	el   *sim.EventList
	step sim.Time
}

func (t *ticker) OnEvent(uint64) { t.el.ScheduleAfter(t.step, t, 0) }

// driveShardWindow is the cost of one window of the sharded runner with
// nothing to do in it: horizon computation, handoff to two shard workers,
// barrier, and a no-op exchange.
func driveShardWindow() float64 {
	const lookahead = 500 * sim.Nanosecond
	lists := []*sim.EventList{sim.NewEventList(), sim.NewEventList()}
	mr := sim.NewMultiRunner(lists, lookahead, func() {})
	mr.Parallel = true
	defer mr.Close()
	for _, el := range lists {
		el.Schedule(0, &ticker{el: el, step: lookahead}, 0)
	}
	return nsPerOp(1, func(n int) { mr.RunUntil(mr.Now() + sim.Time(n)*lookahead) })
}

const driverBacklog = 8

// drivePortHop is one packet through one link: enqueue, serialize,
// propagate, deliver, free — offered in bursts so the queue holds a backlog.
func drivePortHop() float64 {
	el := sim.NewEventList()
	arena := fabric.AttachArena(el)
	port := fabric.NewPort(el, "drv", fabric.NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	port.Connect(fabric.NewCountingSink(el))
	return nsPerOp(driverBacklog, func(n int) {
		for i := 0; i < n; i += driverBacklog {
			for j := 0; j < driverBacklog; j++ {
				port.Enqueue(arena.NewData(1, 0, 1, int64(i+j), 9000))
			}
			el.Run()
		}
	})
}

// driveSwitchHop adds the routing step: a packet received by a switch,
// routed to a bounded egress port and delivered.
func driveSwitchHop() float64 {
	el := sim.NewEventList()
	arena := fabric.AttachArena(el)
	sw := fabric.NewSwitch(el, 0, "drv")
	sw.Route = func(*fabric.Switch, *fabric.Packet) int { return 0 }
	out := fabric.NewPort(el, "out", fabric.NewFIFOQueue(driverBacklog*9000), 10e9, 500*sim.Nanosecond)
	out.Connect(fabric.NewCountingSink(el))
	sw.AddPort(out)
	return nsPerOp(driverBacklog, func(n int) {
		for i := 0; i < n; i += driverBacklog {
			for j := 0; j < driverBacklog; j++ {
				sw.Receive(arena.NewData(1, 0, 1, int64(i+j), 9000))
			}
			el.Run()
		}
	})
}

// driveArena is one packet allocation and release.
func driveArena() float64 {
	arena := fabric.NewArena()
	return nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			fabric.Free(arena.NewData(1, 0, 1, int64(i), 9000))
		}
	})
}

// driveCrossBox is one cross-shard delivery: appended to the mailbox,
// drained into the destination inbox, fired there.
func driveCrossBox() float64 {
	dst := sim.NewEventList()
	inbox := fabric.NewInbox(dst)
	// Packets come from the destination's arena, where Drain would move
	// them anyway: a source arena that never gets a packet back would grow
	// for as long as the driver runs.
	arena := fabric.AttachArena(dst)
	sink := fabric.NewCountingSink(dst)
	var box fabric.CrossBox
	var seq uint64
	return nsPerOp(64, func(n int) {
		for i := 0; i < n; i += 64 {
			at := dst.Now() + sim.Microsecond
			for j := 0; j < 64; j++ {
				seq++
				box.AddDelivery(at, sim.DeliveryOrd(1, seq), arena.NewData(1, 0, 1, int64(seq), 9000), sink)
			}
			box.Drain(inbox)
			dst.Run()
		}
	})
}

// driveQueue is one Enqueue+Dequeue pair on a fabric queue holding a small
// backlog, alternating control and data packets so both bands of a priority
// queue are used. The packets come from an arena, whose own cost
// (fabric.arena_ns) is part of the figure, equally for every discipline.
func driveQueue(q fabric.Queue) float64 {
	arena := fabric.NewArena()
	for i := 0; i < 4; i++ {
		q.Enqueue(arena.NewData(1, 0, 1, int64(i), 9000))
	}
	return nsPerOp(2, func(n int) {
		for i := 0; i < n; i += 2 {
			q.Enqueue(arena.NewControl(fabric.Ack, 1, 1, 0))
			q.Enqueue(arena.NewData(1, 0, 1, int64(i), 9000))
			fabric.Free(q.Dequeue())
			fabric.Free(q.Dequeue())
		}
	})
}

// driveSwitchQueue is the NDP switch queue at 2x overload: two data packets
// arrive per data packet served, so about half are trimmed to headers, which
// the scheduler then serves with priority.
func driveSwitchQueue() float64 {
	arena := fabric.NewArena()
	q := core.NewSwitchQueue(core.DefaultSwitchConfig(9000), sim.NewRand(1))
	var seq int64
	return nsPerOp(2, func(n int) {
		for i := 0; i < n; i += 2 {
			q.Enqueue(arena.NewData(1, 0, 1, seq, 9000))
			q.Enqueue(arena.NewData(1, 0, 1, seq+1, 9000))
			seq += 2
			for {
				p := q.Dequeue()
				if p == nil {
					break
				}
				served := !p.Trimmed()
				fabric.Free(p)
				if served {
					break
				}
			}
		}
	})
}

// allPairs looks up the paths of every ordered host pair once.
func allPairs(ft *topo.FatTree) (pairs int) {
	hosts := int32(ft.NumHosts())
	for s := int32(0); s < hosts; s++ {
		for d := int32(0); d < hosts; d++ {
			if s != d {
				ft.Paths(s, d)
			}
		}
	}
	return int(hosts * (hosts - 1))
}

// drivePathsCold is the first source-route lookup of a host pair on a k=8
// FatTree (enumerate and cache), in microseconds.
func drivePathsCold() float64 {
	best := 0.0
	for rep := 0; rep < driverReps; rep++ {
		ft := topo.NewFatTree(8, topo.Config{Seed: 1})
		t0 := now()
		pairs := allPairs(ft)
		us := float64(now().Sub(t0).Nanoseconds()) / 1e3 / float64(pairs)
		ft.Close()
		if rep == 0 || us < best {
			best = us
		}
	}
	return best
}

// drivePathsWarm is a repeat lookup: one map hit.
func drivePathsWarm() float64 {
	ft := topo.NewFatTree(8, topo.Config{Seed: 1})
	defer ft.Close()
	pairs := allPairs(ft)
	return nsPerOp(pairs, func(n int) {
		for i := 0; i < n; i += pairs {
			allPairs(ft)
		}
	})
}

// driveSample draws flow sizes from the Facebook web distribution.
func driveSample() float64 {
	d := workload.FacebookWeb()
	r := sim.NewRand(1)
	var sum int64
	ns := nsPerOp(1, func(n int) {
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
	})
	if sum == 0 {
		panic("workload.sample driver drew nothing")
	}
	return ns
}

// driveDist is the FCT aggregation of rpc-churn: 64 Ki samples added to a
// Dist, then the four quantiles a Summary takes.
func driveDist() float64 {
	const samples = 64 << 10
	r := sim.NewRand(1)
	vals := make([]float64, samples)
	for i := range vals {
		vals[i] = r.Float64() * 1000
	}
	var sink float64
	return nsPerOp(samples, func(n int) {
		for i := 0; i < n; i += samples {
			var d stats.Dist
			for _, v := range vals {
				d.Add(v)
			}
			sink += d.Quantile(0.1) + d.Median() + d.Quantile(0.9) + d.Quantile(0.99)
		}
	})
}

// driveRunJobs is the sweep-job pool's cost per job: 64 no-op jobs, serial.
func driveRunJobs() float64 {
	jobs := make([]harness.Job[int], 64)
	for i := range jobs {
		jobs[i] = harness.NewJob(fmt.Sprintf("job%d", i), uint64(i), func(seed uint64) int { return int(seed) })
	}
	return nsPerOp(len(jobs), func(n int) {
		for i := 0; i < n; i += len(jobs) {
			harness.RunJobs(harness.Options{Workers: 1}, jobs)
		}
	}) / 1e3
}

// permHeapDepth is the median number of pending events the traced replay of
// perm-ndp records (sim.heap_depth_p50, seed 1): the depth the heap driver
// holds, so its unit cost is the one perm-ndp pays.
const permHeapDepth = 1011

// drivers are the layer drivers by the metric each reports. None depends on
// the workload being run.
var drivers = []struct {
	name string
	run  func() float64
}{
	{"sim.heap_ns_per_op", func() float64 { return driveHeap(permHeapDepth) }},
	{"sim.timer_reset_ns", driveTimerReset},
	{"sim.shard.window_ns", driveShardWindow},
	{"fabric.port_hop_ns", drivePortHop},
	{"fabric.switch_hop_ns", driveSwitchHop},
	{"fabric.arena_ns", driveArena},
	{"fabric.crossbox_ns", driveCrossBox},
	{"fabric.queue_ns.fifo", func() float64 { return driveQueue(fabric.NewFIFOQueue(200 * 9000)) }},
	{"fabric.queue_ns.ecn", func() float64 { return driveQueue(fabric.NewECNQueue(200*9000, 2*9000)) }},
	{"fabric.queue_ns.ctrlprio", func() float64 { return driveQueue(fabric.NewCtrlPrioQueue()) }},
	{"topo.paths_cold_us", drivePathsCold},
	{"topo.paths_warm_ns", drivePathsWarm},
	{"core.switchq_ns", driveSwitchQueue},
	{"workload.sample_ns", driveSample},
	{"stats.dist_ns_per_sample", driveDist},
	{"harness.runjobs_us_per_job", driveRunJobs},
}

// runDrivers fills in every driver metric.
func runDrivers(m map[string]float64) {
	for _, d := range drivers {
		m[d.name] = d.run()
	}
}

// copyDrivers fills in the driver metrics from a result file that has them.
func copyDrivers(path string, m map[string]float64) error {
	rf, err := readResult(path)
	if err != nil {
		return err
	}
	if len(rf.Workloads) == 0 || rf.Workloads[0].PerLayer == nil {
		return fmt.Errorf("%s holds no per-layer metrics", path)
	}
	for _, d := range drivers {
		m[d.name] = rf.Workloads[0].PerLayer[d.name]
	}
	return nil
}

// transportRow is one row of the transport table.
type transportRow struct {
	NsPerHop, EventsPerHop, AllocsPerFlow float64
	WallMs                                float64
	Stats                                 scenario.RunStats
	Output                                output
}

// transportTable runs the fixed incast Spec once per transport through
// scenario.RunWithStats (one warm-up, three timed, fastest kept) and
// reports host cost per packet-hop and allocations per flow.
func transportTable(sz sizes, seed uint64, transports []scenario.Transport) (map[scenario.Transport]transportRow, error) {
	rows := map[scenario.Transport]transportRow{}
	for _, t := range transports {
		spec, err := incastSpec(sz, t, seed)
		if err != nil {
			return nil, err
		}
		var row transportRow
		for rep := 0; rep < 4; rep++ {
			mallocs0, _ := memCounters()
			t0 := now()
			m, st, err := scenario.RunWithStats(spec)
			ms := msSince(t0)
			mallocs1, _ := memCountersNoGC()
			if err != nil {
				return nil, fmt.Errorf("transport table %s: %w", t, err)
			}
			if st.PacketHops == 0 || m.FlowsLaunched == 0 {
				return nil, fmt.Errorf("transport table %s: no traffic", t)
			}
			if rep == 0 {
				continue // warm-up
			}
			if row.WallMs == 0 || ms < row.WallMs {
				row.WallMs = ms
				row.NsPerHop = ms * 1e6 / float64(st.PacketHops)
			}
			row.EventsPerHop = float64(st.Events) / float64(st.PacketHops)
			row.AllocsPerFlow = float64(mallocs1-mallocs0) / float64(m.FlowsLaunched)
			row.Stats = st
			if row.Output, err = metricsOutput(m); err != nil {
				return nil, err
			}
		}
		rows[t] = row
	}
	return rows, nil
}
