package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ndp/scenario"
)

// This file is `ndpsim -bench`: the pinned suite (scenario.BenchSuite) run for
// what only this surface measures — exact allocation counts and the
// deterministic engine block — and the BENCH_*.json trajectory files. Host
// time across commits belongs to benchmark/ (parent and change, in pairs).

// BenchResult is one case's measurement. It stores what was measured and
// nothing derived from it: events/sec, packets/sec and ns/event are
// quotients of these fields and are printed by String.
type BenchResult struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the case pinned (absent: the process's own).
	Procs int `json:"procs,omitempty"`
	// WallMs is the fastest of benchIters runs on the recording machine:
	// comparable inside one report (a sharded row against its unsharded
	// twin, one point of a scaling curve against the next), never across
	// reports — random-tiny read 16.5 ms in BENCH_19 and 8.2 ms in BENCH_21
	// with its 91,082 events and its packet path untouched in between.
	WallMs      float64 `json:"wall_ms"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Engine is the run's deterministic block, the same on any machine.
	Engine scenario.RunStats `json:"engine"`
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

// benchSchema versions the report layout. Schema 1 (BENCH_3 to BENCH_21)
// stored the four counts flat in each row, beside quotients of them;
// notRecorded marks a count such a row does not carry.
const (
	benchSchema = 2
	notRecorded = -1
)

// benchIters is how many measured runs each case gets; the fastest wall
// time is reported. Simulations are deterministic, so event and allocation
// counts are identical across iterations — only wall time carries machine
// noise, and best-of-N is the standard estimator for it.
const benchIters = 3

// runBenchSuite executes the cases in order and returns the report. Each
// case gets one untimed warmup run (pool and heap growth, code paging) and
// benchIters measured runs, reporting the fastest. Allocation counts come
// from runtime.MemStats deltas around a measured run with a GC fence, so
// they are exact for the single-goroutine runs the suite pins (Workers=1).
func runBenchSuite(cases []scenario.BenchCase, label string) *BenchReport {
	rep := &BenchReport{
		Schema:    benchSchema,
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Date:      time.Now().UTC().Format(time.RFC3339),
	}
	for _, c := range cases {
		procs := runtime.GOMAXPROCS(c.Procs) // zero changes nothing
		fmt.Fprintf(os.Stderr, "bench: %s\n", c.Name)
		runCase(c) // warmup
		r := BenchResult{Name: c.Name, Procs: c.Procs}
		var wall time.Duration
		for iter := 0; iter < benchIters; iter++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			r.Engine = runCase(c)
			w := time.Since(start)
			runtime.ReadMemStats(&after)
			if iter == 0 || w < wall {
				wall = w
				r.AllocsPerOp = int64(after.Mallocs - before.Mallocs)
				r.BytesPerOp = int64(after.TotalAlloc - before.TotalAlloc)
			}
		}
		runtime.GOMAXPROCS(procs)
		r.WallMs = float64(wall.Nanoseconds()) / 1e6
		rep.Results = append(rep.Results, r)
	}
	return rep
}

// runCase is one run of a suite member.
func runCase(c scenario.BenchCase) scenario.RunStats {
	m, stats, err := scenario.RunWithStats(c.Spec)
	if err != nil || m.FlowsLaunched == 0 {
		panic(fmt.Sprintf("bench case %s failed or launched no flows: %v", c.Name, err))
	}
	return stats
}

// WriteFile writes the report as indented JSON.
func (r *BenchReport) WriteFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// loadBenchReport reads a report written by WriteFile, or a schema-1 one: of
// its rows the comparisons need the name, allocs_per_op and the four counts.
func loadBenchReport(path string) (*BenchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("parsing bench report %s: %w", path, err)
	}
	if r.Schema == 1 {
		var flat struct {
			Results []map[string]any `json:"results"`
		}
		if err := json.Unmarshal(blob, &flat); err != nil {
			return nil, fmt.Errorf("parsing bench report %s: %w", path, err)
		}
		for i, row := range flat.Results {
			count := func(key string) int64 {
				if v, ok := row[key].(float64); ok {
					return int64(v)
				}
				return notRecorded
			}
			r.Results[i].Engine = scenario.RunStats{
				Events: count("events"), PacketHops: count("packet_hops"),
				SerEndEvents: count("ser_end_events"), CommandEvents: count("command_events"),
			}
		}
	}
	return &r, nil
}

// String renders the report for terminals: per case one row of what the
// recording machine measured, with the quotients a reader wants beside it,
// then the engine block.
func (r *BenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== bench %s: go %s %s/%s cpus=%d ==\n",
		r.Label, r.GoVersion, r.GOOS, r.GOARCH, r.CPUs)
	fmt.Fprintf(&b, "%-26s %10s %10s %12s %12s %12s %10s\n",
		"case", "wall_ms", "allocs", "bytes", "events/sec", "pkts/sec", "ns/event")
	for _, res := range r.Results {
		events, secs := float64(res.Engine.Events), res.WallMs/1e3
		fmt.Fprintf(&b, "%-26s %10.1f %10d %12d %12.0f %12.0f %10.1f\n%s",
			res.Name, res.WallMs, res.AllocsPerOp, res.BytesPerOp,
			events/secs, float64(res.Engine.PacketHops)/secs, 1e9*secs/events, res.Engine)
	}
	return b.String()
}

// byName indexes the report's rows by case name, the join key across reports.
func (r *BenchReport) byName() map[string]BenchResult {
	rows := make(map[string]BenchResult, len(r.Results))
	for _, res := range r.Results {
		rows[res.Name] = res
	}
	return rows
}

// maxAllocGrowthPct is how much a case's allocs/op may grow over the
// baseline before compareBench reports it.
const maxAllocGrowthPct = 20

// compareBench checks current against baseline and returns one message per
// case whose allocs/op grew by more than maxAllocGrowthPct. Allocation
// counts are exact and the same on any machine, which a committed baseline
// from other hardware needs; host time is not judged. Cases present in only
// one report are ignored (a suite may have grown since the baseline was
// committed), as are baseline rows that predate the allocs_per_op field, but
// comparing zero cases is reported as a failure — a silently-empty gate is
// worse than none.
func compareBench(baseline, current *BenchReport) []string {
	base := baseline.byName()
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

// compareCounts lists every case whose deterministic counts differ from the
// baseline's, one line each, and returns with it how many cases the two
// reports share. It judges nothing: a performance change moves counts on
// purpose, and any other change should see none move. A count the baseline
// row does not record is skipped.
func compareCounts(baseline, current *BenchReport) (moved []string, rows int) {
	base := baseline.byName()
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		rows++
		var diffs []string
		was, now := benchCounts(b.Engine), benchCounts(cur.Engine)
		for i, name := range [...]string{"events", "packet_hops", "ser_end_events", "command_events"} {
			if was[i] != notRecorded && was[i] != now[i] {
				diffs = append(diffs, fmt.Sprintf("%s %d -> %d", name, was[i], now[i]))
			}
		}
		if len(diffs) > 0 {
			moved = append(moved, cur.Name+": "+strings.Join(diffs, ", "))
		}
	}
	return moved, rows
}

// benchCounts are the counts compareCounts compares, in the order it names them.
func benchCounts(s scenario.RunStats) [4]int64 {
	return [4]int64{s.Events, s.PacketHops, s.SerEndEvents, s.CommandEvents}
}
