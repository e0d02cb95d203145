// Command ndpsim regenerates the tables and figures of the NDP paper
// (Handley et al., SIGCOMM 2017) from the simulator in this repository,
// and runs custom scenarios composed from the public scenario API.
//
// Usage:
//
//	ndpsim -list                 # experiments + scenario catalog
//	ndpsim -list -json           # the same catalog, machine-readable
//	ndpsim -exp fig14            # one experiment at paper scale
//	ndpsim -exp all -scale 0.3   # everything, shrunk for a quick pass
//	ndpsim -exp fig20 -full      # unlock the 8192-host FatTree
//	ndpsim -exp all -parallel 1  # force the old serial execution
//
//	ndpsim -scenario incast -transport dcqcn -hosts 128 -degree 100 -flowsize 135000
//	ndpsim -scenario permutation -transport mptcp -json
//	ndpsim -scenario permutation -hosts 1024 -shards 8   # one sim, 8 cores
//	ndpsim -scenario rpc -transport tcp -shards 4        # baselines shard too
//
//	ndpsim -bench                                # pinned performance suite
//	ndpsim -bench -baseline BENCH_21.json        # CI allocs/op gate
//	ndpsim -bench -scaling                       # + 1/2/4/8-shard scaling curves
//	ndpsim -bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments and scenario repeats decompose into independent seed-derived
// simulation jobs that run on a worker pool sized by -parallel (default:
// all cores). Results are bit-identical for any worker count with the same
// -seed. Invalid flag values are rejected with exit code 2 before anything
// runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ndp"
	"ndp/scenario"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale    = flag.Float64("scale", 1.0, "scale knob in (0,1]: 1.0 = paper dimensions")
		seed     = flag.Uint64("seed", 1, "random seed")
		full     = flag.Bool("full", false, "unlock extreme sizes (8192-host FatTree)")
		list     = flag.Bool("list", false, "list experiments and scenarios, then exit")
		parallel = flag.Int("parallel", 0, "sweep-job workers: 0 = all cores, 1 = serial")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of tables")

		scen      = flag.String("scenario", "", "named scenario to run (see -list)")
		transport = flag.String("transport", "ndp", "scenario transport: ndp|tcp|dctcp|mptcp|dcqcn|phost")
		hosts     = flag.Int("hosts", 0, "scenario topology size (hosts; 0 = scenario default)")
		degree    = flag.Int("degree", 0, "scenario incast fan-in / rpc conns per host (0 = default)")
		flowsize  = flag.Int64("flowsize", 0, "scenario flow size in bytes (0 = default)")
		repeats   = flag.Int("repeats", 1, "scenario repetitions aggregated into one result")
		shards    = flag.Int("shards", 1, "scenario: shard each simulation across this many cores (every transport, on fattree/twotier/jellyfish; results identical for any value)")

		bench      = flag.Bool("bench", false, "run the pinned benchmark suite, then exit")
		scaling    = flag.Bool("scaling", false, "bench: additionally run the shard-scaling curves (1/2/4/8 shards at pinned GOMAXPROCS)")
		benchOut   = flag.String("benchout", "", "bench: also write the report JSON to this path (e.g. BENCH_3.json)")
		benchLabel = flag.String("benchlabel", "local", "bench: label recorded in the report")
		baseline   = flag.String("baseline", "", "bench: compare with this committed report: exit 1 when a case's allocs/op grew more than 20%, and list the cases whose deterministic counts moved")
		cpuProfile = flag.String("cpuprofile", "", "bench: write a CPU profile of the measured runs to this path")
		memProfile = flag.String("memprofile", "", "bench: write a post-suite heap profile to this path")
	)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *hosts < 0 || *degree < 0 || *flowsize < 0 {
		fatalUsage("-hosts/-degree/-flowsize must be >= 0 (0 = scenario default), got %d/%d/%d",
			*hosts, *degree, *flowsize)
	}
	if *hosts == 1 {
		fatalUsage("-hosts 1 cannot carry traffic; use 0 for the scenario default or >= 2")
	}
	if *shards < 1 {
		fatalUsage("-shards must be >= 1, got %d", *shards)
	}
	if explicit["shards"] && *scen == "" {
		fatalUsage("-shards only applies to -scenario mode (experiments parallelize across sweep jobs with -parallel; the bench suite pins its own sharded cases)")
	}
	validateFlags(*exp, *scen, *transport, *scale, *parallel, *repeats, *bench, explicit)

	if *bench {
		if err := runBench(*scaling, *benchOut, *benchLabel, *baseline, *jsonOut, *cpuProfile, *memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list || (*exp == "" && *scen == "") {
		printCatalog(*jsonOut)
		if *exp == "" && *scen == "" && !*list {
			os.Exit(2)
		}
		return
	}

	if *scen != "" {
		runScenario(*scen, *transport, *hosts, *degree, *flowsize, *seed, *parallel, *repeats, *shards, *jsonOut)
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ndp.Experiments()
	}
	opts := ndp.Options{Scale: *scale, Seed: *seed, Full: *full, Workers: *parallel}
	total := time.Now() //simlint:allow wallclock — CLI progress reporting: wall time is printed, never simulated
	var results []*ndp.Result
	for _, id := range ids {
		start := time.Now() //simlint:allow wallclock — CLI progress reporting: wall time is printed, never simulated
		res, err := ndp.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonOut {
			results = append(results, res)
			continue
		}
		fmt.Print(res)
		//simlint:allow wallclock — CLI progress reporting: wall time is printed, never simulated
		fmt.Printf("(%s wall time: %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	switch {
	case *jsonOut && len(results) == 1:
		emitJSON(results[0])
	case *jsonOut:
		// One valid JSON document regardless of how many experiments ran.
		emitJSON(results)
	case *exp == "all":
		fmt.Printf("== %d experiments, total wall time: %v ==\n",
			//simlint:allow wallclock — CLI progress reporting: wall time is printed, never simulated
			len(ids), time.Since(total).Round(time.Millisecond))
	}
}

// validateFlags rejects invalid or inapplicable flag values loudly
// (exit 2) before any simulation runs, instead of silently clamping or
// ignoring them. explicit holds the flags the user actually set.
func validateFlags(exp, scen, transport string, scale float64, parallel, repeats int, bench bool, explicit map[string]bool) {
	if scale <= 0 || scale > 1 {
		fatalUsage("-scale must be in (0,1], got %g", scale)
	}
	if parallel < 0 {
		fatalUsage("-parallel must be >= 0, got %d", parallel)
	}
	if repeats < 1 {
		fatalUsage("-repeats must be >= 1, got %d", repeats)
	}
	ok := false
	for _, t := range scenario.Transports() {
		if string(t) == transport {
			ok = true
		}
	}
	if !ok {
		fatalUsage("unknown transport %q (known: %v)", transport, scenario.Transports())
	}
	if exp != "" && scen != "" {
		fatalUsage("-exp and -scenario are mutually exclusive")
	}
	if bench {
		if exp != "" || scen != "" {
			fatalUsage("-bench is mutually exclusive with -exp and -scenario")
		}
		if explicit["list"] {
			fatalUsage("-list does not apply to -bench mode")
		}
		// The suite pins sizes, seeds and serial execution so reports stay
		// comparable; reject knobs that would silently not apply.
		for _, f := range []string{"scale", "full", "seed", "parallel", "transport",
			"hosts", "degree", "flowsize", "repeats"} {
			if explicit[f] {
				fatalUsage("-%s does not apply to -bench mode (the suite is pinned)", f)
			}
		}
	} else {
		for _, f := range []string{"scaling", "benchout", "benchlabel", "baseline",
			"cpuprofile", "memprofile"} {
			if explicit[f] {
				fatalUsage("-%s only applies to -bench mode", f)
			}
		}
	}
	if exp != "" {
		if exp != "all" && ndp.Describe(exp) == "" {
			fatalUsage("unknown experiment %q (see -list)", exp)
		}
		for _, f := range []string{"transport", "hosts", "degree", "flowsize", "repeats"} {
			if explicit[f] {
				fatalUsage("-%s only applies to -scenario mode", f)
			}
		}
	}
	if scen != "" {
		n, ok := scenario.Lookup(scen)
		if !ok {
			fatalUsage("unknown scenario %q (see -list)", scen)
		}
		for _, f := range []string{"scale", "full"} {
			if explicit[f] {
				fatalUsage("-%s does not apply to -scenario mode", f)
			}
		}
		for _, f := range []string{"hosts", "degree", "flowsize"} {
			if explicit[f] && !n.UsesParam(f) {
				fatalUsage("scenario %q does not use -%s (accepted: %v)", scen, f, n.Uses)
			}
		}
	}
}

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ndpsim: "+format+"\n", args...)
	os.Exit(2)
}

// experimentEntry is one experiment row in the -list -json document.
type experimentEntry struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

// printCatalog lists everything ndpsim can run. The JSON form is the same
// catalog the ndpsimd daemon serves at /api/catalog, plus the experiment
// registry; the text form adds each scenario's accepted params and the
// fully-defaulted Spec it builds from zero params.
func printCatalog(jsonOut bool) {
	entries := scenario.CatalogEntries()
	if jsonOut {
		exps := make([]experimentEntry, 0)
		for _, id := range ndp.Experiments() {
			exps = append(exps, experimentEntry{ID: id, Description: ndp.Describe(id)})
		}
		emitJSON(struct {
			Experiments []experimentEntry       `json:"experiments"`
			Scenarios   []scenario.CatalogEntry `json:"scenarios"`
		}{exps, entries})
		return
	}
	fmt.Println("experiments:")
	for _, id := range ndp.Experiments() {
		fmt.Printf("  %-8s  %s\n", id, ndp.Describe(id))
	}
	fmt.Println("scenarios (compose with -transport/-hosts/-degree/-flowsize):")
	for _, e := range entries {
		d := e.Defaults
		fmt.Printf("  %-12s  %s\n", e.Name, e.Description)
		fmt.Printf("  %-12s    params: %s\n", "", strings.Join(e.Params, ", "))
		fmt.Printf("  %-12s    defaults: %s, %s, transport %s, mtu %d\n",
			"", d.Topology, d.Workload, d.Transport, d.MTU)
	}
}

func runScenario(name, transport string, hosts, degree int, flowsize int64,
	seed uint64, workers, repeats, shards int, jsonOut bool) {
	spec, err := scenario.Build(name,
		scenario.Params{Hosts: hosts, Degree: degree, FlowSize: flowsize},
		scenario.WithTransport(scenario.Transport(transport)),
		scenario.WithSeed(seed),
		scenario.WithWorkers(workers),
		scenario.WithRepeats(repeats),
		scenario.WithShards(shards),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Spec-level validation failures (e.g. an incast degree larger than
	// the topology) are usage errors too: reject before running anything.
	// scenario.Validate is the same gate the ndpsimd daemon answers 400
	// with, so CLI and service refuse identical Specs with identical text.
	if err := scenario.Validate(spec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now() //simlint:allow wallclock — CLI progress reporting: wall time is printed, never simulated
	m, stats, err := scenario.RunWithStats(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if jsonOut {
		emitJSON(m)
		return
	}
	fmt.Print(m)
	fmt.Print(stats)
	//simlint:allow wallclock — CLI progress reporting: wall time is printed, never simulated
	fmt.Printf("(wall time: %v)\n", time.Since(start).Round(time.Millisecond))
}

// runBench executes the pinned suite (with -scaling, the shard-scaling curves
// too), prints the report, optionally persists it, and optionally compares it
// with a committed baseline: the cases whose deterministic counts moved are
// listed (compareCounts), and any case whose allocs/op grew more than 20
// percent (compareBench) is an error. With -cpuprofile/-memprofile the suite
// runs under the profiler, so hot paths and allocation sites can be read
// straight off the pinned workloads.
func runBench(scaling bool, outPath, label, baselinePath string, jsonOut bool, cpuProfile, memProfile string) error {
	cases := scenario.BenchSuite()
	if scaling {
		cases = append(cases, scenario.BenchScalingSuite()...)
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	rep := runBenchSuite(cases, label)
	if cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "bench: CPU profile written to %s\n", cpuProfile)
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // flush dead objects so the profile shows live + cumulative allocs cleanly
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: heap profile written to %s\n", memProfile)
	}
	if jsonOut {
		emitJSON(rep)
	} else {
		fmt.Print(rep)
	}
	if outPath != "" {
		if err := rep.WriteFile(outPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: report written to %s\n", outPath)
	}
	if baselinePath == "" {
		return nil
	}
	base, err := loadBenchReport(baselinePath)
	if err != nil {
		return err
	}
	moved, rows := compareCounts(base, rep)
	for _, msg := range moved {
		fmt.Fprintf(os.Stderr, "bench: counts moved vs %s: %s\n", baselinePath, msg)
	}
	if len(moved) == 0 {
		fmt.Fprintf(os.Stderr, "bench: deterministic counts equal on %d rows\n", rows)
	}
	if regressions := compareBench(base, rep); len(regressions) > 0 {
		return errors.New("bench: REGRESSION: " + strings.Join(regressions, "\nbench: REGRESSION: "))
	}
	fmt.Fprintf(os.Stderr, "bench: no allocs/op regression vs %s\n", baselinePath)
	return nil
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
