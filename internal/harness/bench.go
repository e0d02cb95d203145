package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ndp/internal/sim"
)

// This file is the benchmark harness behind `ndpsim -bench`: it runs a
// pinned suite of named simulation cases, measures wall time, simulation
// events, packet-hops and allocations, and reads/writes the BENCH_*.json
// trajectory files so every PR's performance is comparable with the last.
// The case definitions live in the scenario package (they are built from
// public Specs); this package provides the measurement, report and
// baseline-comparison machinery.

// BenchCounts are the engine-level observables one benchmark run returns.
type BenchCounts struct {
	// Events is the number of scheduler events executed.
	Events int64
	// PacketHops is the number of packet wire-traversals simulated.
	PacketHops int64
	// SerEndEvents is how many of Events were port serialization ends: the
	// part that depends on the shard layout (cut ports keep theirs, ports
	// inside a shard serialize on demand).
	SerEndEvents int64
	// CommandEvents is how many deferred commands (topo.Cluster.Defer) the
	// hosts emitted: the same for every shard layout.
	CommandEvents int64
	// Windows is what the sharded runner's windows did; zero for a case
	// that runs on one event list.
	Windows sim.WindowStats
	// Queue is what the scheduler's two tiers did, summed over the run's
	// event lists.
	Queue sim.QueueStats
}

// BenchCase is one pinned benchmark: a stable name (the unit of comparison
// across BENCH_*.json files — never rename without a migration note) and a
// Run function executing one full deterministic simulation. Procs, when non-zero, pins GOMAXPROCS around
// every run of the case (warmup included) so parallel-engine curves keep
// a comparable shape across recording machines; zero leaves the runtime
// default untouched.
type BenchCase struct {
	Name  string
	Procs int
	Run   func() BenchCounts
}

// BenchResult is one case's measurement.
type BenchResult struct {
	Name          string  `json:"name"`
	WallMs        float64 `json:"wall_ms"`
	Events        int64   `json:"events"`
	PacketHops    int64   `json:"packet_hops"`
	SerEndEvents  int64   `json:"ser_end_events"`
	CommandEvents int64   `json:"command_events"`
	EventsPerHop  float64 `json:"events_per_hop"`
	EventsPerSec  float64 `json:"events_per_sec"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	NsPerEvent    float64 `json:"ns_per_event"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	// Procs is the GOMAXPROCS the case pinned (absent: the process's own).
	Procs int `json:"procs,omitempty"`
	// Sharded cases only — deterministic counts of the windowed runner
	// (sim.WindowStats): windows run, windows with a single busy shard,
	// events per shard, and the share of all events on the windows'
	// critical path (1/shards is ideal; its inverse caps the speedup).
	Windows       uint64   `json:"windows,omitempty"`
	SingleBusy    uint64   `json:"single_busy_windows,omitempty"`
	ShardEvents   []uint64 `json:"shard_events,omitempty"`
	CriticalShare float64  `json:"critical_share,omitempty"`
	// Deterministic counts of the scheduler's tiers (sim.QueueStats). A
	// wheel share that falls, or heap pushes that move from "cancelable" to
	// "active_bucket" or "sparse", say a workload has left the near-future
	// regime the wheel serves.
	Queue *BenchQueue `json:"queue,omitempty"`
}

// BenchQueue is the sim.QueueStats summary of one case.
type BenchQueue struct {
	WheelShare  float64 `json:"wheel_share"`
	MeanRun     float64 `json:"mean_run"`
	MaxRun      int     `json:"max_run"`
	PeakPending int     `json:"peak_pending"`
	HeapPushes  uint64  `json:"heap_pushes"`
	// HeapPushes by the admission clause that refused the wheel.
	Cancelable   uint64 `json:"heap_pushes_cancelable"`
	BeyondSpan   uint64 `json:"heap_pushes_beyond_span"`
	ActiveBucket uint64 `json:"heap_pushes_active_bucket"`
	Sparse       uint64 `json:"heap_pushes_sparse"`
}

// BenchReport is a full suite run: what was measured, and on what.
type BenchReport struct {
	Schema    int           `json:"schema"`
	Label     string        `json:"label,omitempty"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Date      string        `json:"date"`
	Results   []BenchResult `json:"results"`
}

// benchSchema versions the report layout for future readers.
const benchSchema = 1

// benchIters is how many measured runs each case gets; the fastest wall
// time is reported. Simulations are deterministic, so event and allocation
// counts are identical across iterations — only wall time carries machine
// noise, and best-of-N is the standard estimator for it.
const benchIters = 3

// RunBenchSuite executes the cases in order and returns the report. Each
// case gets one untimed warmup run (pool and heap growth, code paging) and
// benchIters measured runs, reporting the fastest. Allocation counts come
// from runtime.MemStats deltas around a measured run with a GC fence, so
// they are exact for the single-goroutine runs the suite pins (Workers=1).
func RunBenchSuite(cases []BenchCase, label string, logf func(format string, args ...any)) *BenchReport {
	rep := &BenchReport{
		Schema:    benchSchema,
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Date:      time.Now().UTC().Format(time.RFC3339), //simlint:allow wallclock — report metadata: records when the bench ran, never feeds a simulation
	}
	for _, c := range cases {
		restoreProcs := func() {}
		if c.Procs > 0 {
			old := runtime.GOMAXPROCS(c.Procs)
			restoreProcs = func() { runtime.GOMAXPROCS(old) }
		}
		if logf != nil {
			logf("bench: %s (warmup)", c.Name)
		}
		c.Run()
		if logf != nil {
			logf("bench: %s", c.Name)
		}
		var counts BenchCounts
		var wall time.Duration
		var allocs, bytes int64
		for iter := 0; iter < benchIters; iter++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now() //simlint:allow wallclock — wall-time throughput is the quantity this bench measures
			counts = c.Run()
			w := time.Since(start) //simlint:allow wallclock — wall-time throughput is the quantity this bench measures
			runtime.ReadMemStats(&after)
			if iter == 0 || w < wall {
				wall = w
				allocs = int64(after.Mallocs - before.Mallocs)
				bytes = int64(after.TotalAlloc - before.TotalAlloc)
			}
		}
		restoreProcs()

		r := BenchResult{
			Name:          c.Name,
			WallMs:        float64(wall.Nanoseconds()) / 1e6,
			Events:        counts.Events,
			PacketHops:    counts.PacketHops,
			SerEndEvents:  counts.SerEndEvents,
			CommandEvents: counts.CommandEvents,
			AllocsPerOp:   allocs,
			BytesPerOp:    bytes,
			Procs:         c.Procs,
		}
		if w := counts.Windows; w.Windows > 0 {
			r.Windows, r.SingleBusy, r.ShardEvents = w.Windows, w.SingleBusy, w.Events
			r.CriticalShare = w.CriticalShare()
		}
		if q := counts.Queue; q.WheelPops+q.HeapPops > 0 {
			r.Queue = &BenchQueue{
				WheelShare: q.WheelShare(), MeanRun: q.MeanRun(), MaxRun: q.MaxRun,
				PeakPending: q.PeakPending,
				HeapPushes:  q.HeapCancelable + q.HeapBeyondSpan + q.HeapActiveBucket + q.HeapSparse,
				Cancelable:  q.HeapCancelable, BeyondSpan: q.HeapBeyondSpan,
				ActiveBucket: q.HeapActiveBucket, Sparse: q.HeapSparse,
			}
		}
		if secs := wall.Seconds(); secs > 0 {
			r.EventsPerSec = float64(counts.Events) / secs
			r.PacketsPerSec = float64(counts.PacketHops) / secs
		}
		if counts.Events > 0 {
			r.NsPerEvent = float64(wall.Nanoseconds()) / float64(counts.Events)
		}
		if counts.PacketHops > 0 {
			r.EventsPerHop = float64(counts.Events) / float64(counts.PacketHops)
		}
		rep.Results = append(rep.Results, r)
	}
	return rep
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// LoadBenchReport reads a report written by WriteFile.
func LoadBenchReport(path string) (*BenchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("harness: parsing bench report %s: %w", path, err)
	}
	return &r, nil
}

// String renders the report as an aligned table for terminals.
func (r *BenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== bench %s: go %s %s/%s cpus=%d ==\n",
		r.Label, r.GoVersion, r.GOOS, r.GOARCH, r.CPUs)
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %8s %14s %12s %10s\n",
		"case", "wall_ms", "events", "pkt_hops", "ev/hop", "events/sec", "allocs", "ns/event")
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%-16s %10.1f %12d %12d %8.2f %14.0f %12d %10.1f\n",
			res.Name, res.WallMs, res.Events, res.PacketHops, res.EventsPerHop,
			res.EventsPerSec, res.AllocsPerOp, res.NsPerEvent)
		if res.Windows > 0 {
			fmt.Fprintf(&b, "%-16s windows=%d single_busy=%d critical_share=%.3f shard_events=%v\n",
				"", res.Windows, res.SingleBusy, res.CriticalShare, res.ShardEvents)
		}
		if q := res.Queue; q != nil {
			fmt.Fprintf(&b, "%-16s queue: wheel_share=%.3f mean_run=%.1f max_run=%d peak_pending=%d heap_pushes=%d (cancelable %d, beyond_span %d, active_bucket %d, sparse %d)\n",
				"", q.WheelShare, q.MeanRun, q.MaxRun, q.PeakPending, q.HeapPushes,
				q.Cancelable, q.BeyondSpan, q.ActiveBucket, q.Sparse)
		}
	}
	return b.String()
}

// maxAllocGrowthPct is how much a case's allocs/op may grow over the
// baseline before CompareBench reports it.
const maxAllocGrowthPct = 20

// CompareBench checks current against baseline and returns one message per
// case whose allocs/op grew by more than maxAllocGrowthPct. Allocation
// counts are exact and the same on any machine, which a committed baseline
// from other hardware needs; host-time claims (events/sec, wall time) belong
// to benchmark/, which measures parent and change on the same box. Cases
// present in only one report are ignored (a suite may have grown since the
// baseline was committed), as are baseline rows that predate
// the allocs_per_op field, but comparing zero cases is reported as a
// failure — a silently-empty gate is worse than none.
func CompareBench(baseline, current *BenchReport) []string {
	base := make(map[string]BenchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var msgs []string
	compared := 0
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok || b.AllocsPerOp <= 0 {
			continue
		}
		compared++
		grow := 100 * float64(cur.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp)
		if grow > maxAllocGrowthPct {
			msgs = append(msgs, fmt.Sprintf(
				"%s: allocs/op regressed %.1f%% (baseline %d -> current %d, limit %d%%)",
				cur.Name, grow, b.AllocsPerOp, cur.AllocsPerOp, maxAllocGrowthPct))
		}
	}
	if compared == 0 {
		msgs = append(msgs, fmt.Sprintf(
			"no common cases with allocation counts between baseline (%d cases) and current (%d cases): the gate compared nothing",
			len(baseline.Results), len(current.Results)))
	}
	sort.Strings(msgs)
	return msgs
}
