package main

import (
	"fmt"
	"io"
)

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	ok         verdict = "ok"
	unresolved verdict = "unresolved"
	exceeds    verdict = "exceeds"
)

// timing reports whether a metric is host time, which the machine's noise
// reaches; counts and bytes repeat (nearly) exactly.
func timing(metric string) bool { return metric == "wall_ms" || metric == "setup_s" }

// noisyPair reports whether the machine, not the program, may separate the
// timings of two runs of one workload: either run was marked UNRESOLVED, or
// the calibration kernel — work no change to the simulator can move — ran
// more than noisyCalibDriftPct apart in the two.
func noisyPair(a, b *workloadResult) bool {
	lo, hi := min(a.CalibMs, b.CalibMs), max(a.CalibMs, b.CalibMs)
	return a.Unresolved || b.Unresolved || hi > lo*(1+noisyCalibDriftPct/100.0)
}

// judge compares b against a for one end-to-end metric: worsePct is how much
// worse b is, as a share of a, in the metric's own direction (negative =
// better). Beyond the bound it exceeds — unless the metric is a timing and
// the pair is noisy, in which case it is unresolved: not unchanged and not
// worse.
func judge(d metricDef, a, b float64, noisy bool) (worsePct float64, v verdict) {
	if a == 0 {
		return 0, unresolved
	}
	worse := (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= d.Bound:
		v = ok
	case timing(d.Name) && noisy:
		v = unresolved
	default:
		v = exceeds
	}
	return 100 * worse, v
}

// agree compares two result files metric by metric against the bounds and
// prints one row per (workload, end-to-end metric): both values, how much
// worse B is, and the verdict. It is both the repeatability test (two sets
// of the same code must agree) and the parent-versus-change comparison
// later changes use (A = parent, B = change). It reports whether any pair
// exceeds its bound; a failed operation in B exceeds every bound.
func agree(w io.Writer, pathA, pathB string) (anyExceeds bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%s, GOMAXPROCS %d)\nB = %s (%s, GOMAXPROCS %d)\n", pathA, a.GoVersion, a.GOMAXPROCS, pathB, b.GoVersion, b.GOMAXPROCS)
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "B worse", "bound", "verdict")
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	compared := 0
	for _, ra := range a.Workloads {
		rb, found := byName[ra.Workload]
		if !found {
			continue
		}
		compared++
		noisy := noisyPair(ra, rb)
		for _, d := range endToEnd {
			worse, v := judge(d, ra.EndToEnd[d.Name], rb.EndToEnd[d.Name], noisy)
			if rb.OpsFailed > 0 {
				v = exceeds
			}
			anyExceeds = anyExceeds || v == exceeds
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %+8.2f%% %5.0f%%  %s\n",
				ra.Workload, d.Name, ra.EndToEnd[d.Name], rb.EndToEnd[d.Name], worse, 100*d.Bound, v)
		}
		v := ok
		if rb.OpsFailed > 0 {
			v, anyExceeds = exceeds, true
		}
		fmt.Fprintf(w, "%-18s %-18s %14d %14d %9s %6s  %s\n", ra.Workload, "ops_failed", ra.OpsFailed, rb.OpsFailed, "", "0", v)
	}
	if compared == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	return anyExceeds, nil
}
