// Command benchmark is the repository's benchmark: four named workloads
// over the simulator, end-to-end host-time and memory metrics with fixed
// regression bounds, an output check on every iteration, and — under
// -trace 1 — a traced iteration plus per-layer drivers that attribute the
// cost outside-in. BENCHMARK.json at the repo root declares it to the
// driver; README.md beside this file explains every workload and metric.
//
//	go run -C benchmark . -workload all            # every workload, every end-to-end metric
//	go run -C benchmark . -workload all -trace 1   # plus the per-layer ladder and out/trace-*.json
//	go run -C benchmark . -workload rpc-churn -seed 2 -seconds 20
//	go run -C benchmark . -pin                     # regenerate expected.json
//	go run -C benchmark . -agree out/result-a.json out/result-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var cfg runConfig
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one process each)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "the only randomness: flows into Spec.Seed / Options.Seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 0, "time-box the timed iterations (floors: 15 iterations, 3 figures passes, until twice the box is used); 0 = run exactly -iters")
	flag.IntVar(&cfg.Iters, "iters", 25, "timed iterations when -seconds is 0 (figures: iters/5 passes)")
	trace := flag.Int("trace", 0, "1 = add the traced iteration and the layer drivers, print the per-layer metrics")
	label := flag.String("label", "", "result file label: out/result-<label>.json (default <workload>-seed<seed>)")
	outDir := flag.String("out", "", "output directory (default: out/ beside the benchmark's sources)")
	flag.StringVar(&cfg.DriversFrom, "drivers-from", "", "with -trace 1: take the layer drivers' numbers from this result file instead of running them (-workload all does)")
	doPin := flag.Bool("pin", false, "regenerate expected.json from the current tree, then exit")
	doAgree := flag.Bool("agree", false, "compare two result files (args: A.json B.json) against the bounds; exit 1 if B exceeds any")
	flag.Parse()

	dir := sourceDir()
	if *outDir == "" {
		*outDir = filepath.Join(dir, "out")
	}
	cfg.OutDir = *outDir
	cfg.Trace = *trace != 0
	cfg.Sizes = defaultSizes()
	if *label == "" {
		*label = fmt.Sprintf("%s-seed%d", *workload, cfg.Seed)
	}

	switch {
	case *doPin:
		if err := pin(dir, cfg.Sizes); err != nil {
			fatal(err)
		}
	case *doAgree:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree needs two result files"))
		}
		exceeds, err := agree(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if exceeds {
			os.Exit(1)
		}
	case *workload == "all":
		if err := runAll(cfg, *label); err != nil {
			fatal(err)
		}
	default:
		cfg.Workload = *workload
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			fatal(err)
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		if err := writeResult(cfg.OutDir, *label, cfg.Seed, []*workloadResult{res}); err != nil {
			fatal(err)
		}
		printResult(res, cfg.Trace)
		printResultLine(res, cfg.Trace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// sourceDir finds the benchmark's own directory from the working directory:
// the repo root (the driver, run.sh) or the directory itself (go run -C).
func sourceDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "expected.json")); err == nil {
		return "benchmark"
	}
	return "."
}

// runAll runs every workload in a process of its own, one after another, so
// that peak_rss_mb is per workload and no workload inherits another's heap.
func runAll(cfg runConfig, label string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var results []*workloadResult
	var parts []string
	for _, w := range workloads {
		part := label + "." + w.Name
		args := []string{"-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds),
			"-iters", fmt.Sprint(cfg.Iters), "-label", part, "-out", cfg.OutDir}
		if cfg.Trace {
			args = append(args, "-trace", "1")
			if len(parts) > 0 {
				// The first workload ran the layer drivers; the others
				// take its numbers.
				args = append(args, "-drivers-from", parts[0])
			}
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		path := resultPath(cfg.OutDir, part)
		rf, err := readResult(path)
		if err != nil {
			return err
		}
		results = append(results, rf.Workloads...)
		parts = append(parts, path)
	}
	for _, path := range parts {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	if err := writeResult(cfg.OutDir, label, cfg.Seed, results); err != nil {
		return err
	}

	by := map[string]*workloadResult{}
	failed := 0
	fmt.Printf("\n== all workloads, seed %d: %s ==\n", cfg.Seed, resultPath(cfg.OutDir, label))
	fmt.Printf("%-18s %6s %5s %10s", "workload", "iters", "ops", "ops_failed")
	for _, d := range endToEnd {
		fmt.Printf(" %18s", d.Name+"("+d.Unit+")")
	}
	fmt.Println()
	for _, r := range results {
		by[r.Workload] = r
		failed += r.OpsFailed
		fmt.Printf("%-18s %6d %5d %10d", r.Workload, r.Iters, r.Ops, r.OpsFailed)
		for _, d := range endToEnd {
			fmt.Printf(" %18.4f", r.EndToEnd[d.Name])
		}
		if r.Unresolved {
			fmt.Print("  UNRESOLVED")
		}
		fmt.Println()
	}
	one, two := by["perm-ndp"], by["perm-ndp-shards2"]
	if one.Digest != two.Digest {
		failed++
		fmt.Printf("FAILED: perm-ndp-shards2 digest %.16s differs from perm-ndp %.16s\n", two.Digest, one.Digest)
	}
	fmt.Printf("sim.shard.speedup = wall_ms(perm-ndp)/wall_ms(perm-ndp-shards2) = %.2f/%.2f = %.3fx\n",
		one.EndToEnd["wall_ms"], two.EndToEnd["wall_ms"], one.EndToEnd["wall_ms"]/two.EndToEnd["wall_ms"])
	if failed > 0 {
		return fmt.Errorf("%d operations failed their output check", failed)
	}
	return nil
}

// resultFile is the layout of out/result-<label>.json.
type resultFile struct {
	Label      string `json:"label"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	// Claim names the (metric, workload) a change claims to improve; the
	// benchmark itself claims nothing.
	Claim     *claim            `json:"claim"`
	Workloads []*workloadResult `json:"workloads"`
}

type claim struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

func resultPath(dir, label string) string { return filepath.Join(dir, "result-"+label+".json") }

func writeResult(dir, label string, seed uint64, results []*workloadResult) error {
	rf := resultFile{Label: label, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Workloads: results}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, label), append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// printResult prints every metric of one run by name, with its unit.
func printResult(r *workloadResult, traced bool) {
	fmt.Printf("== %s: seed %d, %d timed iterations, GOMAXPROCS %d ==\n", r.Workload, r.Seed, r.Iters, runtime.GOMAXPROCS(0))
	mark := ""
	if r.Unresolved {
		mark = fmt.Sprintf("  UNRESOLVED (noise_pct above %d or calib_ms drifting by more than %d%%: this machine is too noisy to time a program)", noisyNoisePct, noisyCalibDriftPct)
	}
	fmt.Println("end-to-end (tracing off; host time and host memory):")
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "wall_ms":
			note = fmt.Sprintf("  fastest fifth of n=%d, segment by segment; whole iterations: fastest fifth %.3f ms, median %.3f ms, IQR %.3f ms, noise_pct %.1f%%%s",
				r.Iters, r.WallWholeMs, r.WallMedianMs, r.WallIQRMs, r.NoisePct, mark)
		case "setup_s":
			note = fmt.Sprintf("  median of n=%d set-ups%s", len(r.SetupSamplesS), mark)
		}
		fmt.Printf("  %-20s %14.4f %-6s %s is better, bound %2.0f%%%s\n", d.Name, r.EndToEnd[d.Name], d.Unit, d.Better, 100*d.Bound, note)
	}
	fmt.Printf("  %-20s %14d %-6s\n", "ops", r.Ops, "count")
	fmt.Printf("  %-20s %14d %-6s lower is better, bound 0\n", "ops_failed", r.OpsFailed, "count")
	fmt.Printf("  calibration kernel: median %.2f ms, drift %.1f%% over the run\n", r.CalibMs, r.CalibDriftPct)
	for _, f := range r.Failures {
		fmt.Println("  FAILED", f)
	}
	if !traced {
		return
	}
	fmt.Println("per-layer (traced iteration and layer drivers; 0 = not on this workload's path):")
	for _, d := range perLayer() {
		fmt.Printf("  %-30s %16.4f %-7s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine prints the end-to-end metrics (tracing off) or the
// per-layer metrics (tracing on) as one JSON object.
func printResultLine(r *workloadResult, traced bool) {
	line := resultLine{Correct: r.OpsFailed == 0, Attempted: r.Ops, Failed: r.OpsFailed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, r.EndToEnd
	if traced {
		defs, values = perLayer(), r.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
