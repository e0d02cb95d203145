package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read; every timing is a difference
// of two calls.
func now() time.Time {
	return time.Now() //simlint:allow wallclock — the benchmark measures host time; nothing read here reaches a simulation
}

func msSince(t0 time.Time) float64 { return float64(now().Sub(t0).Nanoseconds()) / 1e6 }

// fastestFifth is the mean of the fastest fifth of the samples (n/5 of them,
// at least one). Every iteration of a workload does bit-identical work, so
// the spread between its samples is interference from the machine, which only
// ever adds time: the low tail estimates the program.
func fastestFifth(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	k := len(s) / 5
	if k < 1 {
		k = 1
	}
	var sum float64
	for _, v := range s[:k] {
		sum += v
	}
	return sum / float64(k)
}

// fastestFifthBySegment applies the estimator to each segment of the
// iterations separately and sums: runs[i][k] is the time iteration i spent in
// its k-th segment, and segment k is the same work in every iteration. A
// burst of interference that spoils one segment of one iteration and another
// of the next then spoils no sample entirely, so the estimate needs the
// machine to be quiet for a fifth of each segment's instances, not for a
// fifth of the whole iterations. Iterations that were not cut alike (which
// bit-identical work never is) fall back to their totals.
func fastestFifthBySegment(runs [][]float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	for _, r := range runs {
		if len(r) != len(runs[0]) {
			return fastestFifth(totals(runs))
		}
	}
	var sum float64
	column := make([]float64, len(runs))
	for k := range runs[0] {
		for i, r := range runs {
			column[i] = r[k]
		}
		sum += fastestFifth(column)
	}
	return sum
}

// totals sums each iteration's segments.
func totals(runs [][]float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		for _, v := range r {
			out[i] += v
		}
	}
	return out
}

// segments is a stopwatch for one iteration: mark is handed to the program
// as its progress hook, and cut returns the stretches between the start, the
// marks and the end, in milliseconds. The caller empties marks before the
// iteration.
type segments struct{ marks []time.Time }

func (s *segments) mark() { s.marks = append(s.marks, now()) }

func (s *segments) cut(start, end time.Time) []float64 {
	out := make([]float64, 0, len(s.marks)+1)
	prev := start
	for _, m := range s.marks {
		out = append(out, float64(m.Sub(prev).Nanoseconds())/1e6)
		prev = m
	}
	return append(out, float64(end.Sub(prev).Nanoseconds())/1e6)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics (the "inclusive"
// method), so the median of an even count is the mean of the middle pair.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func iqr(samples []float64) float64 { return quantile(samples, 0.75) - quantile(samples, 0.25) }

// memCounters reads the cumulative allocation counters after a full GC, so a
// difference of two reads brackets exactly the allocations made in between.
func memCounters() (mallocs, bytes uint64) {
	runtime.GC()
	return memCountersNoGC()
}

// memCountersNoGC reads the same counters without the fence, for the closing
// bracket of an interval (a GC there would only add time).
func memCountersNoGC() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// resetPeakRSS restarts the kernel's high-water mark of the process's
// resident memory at its current value, so that the next peakRSSMB speaks for
// the stretch since. Where the kernel refuses, the mark stays the process's
// own and the samples are a running maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTimeMs returns the process's user+system CPU time so far.
func cpuTimeMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// The calibration kernel is a fixed amount of work kept here in benchmark/,
// which no change to the simulator can move: replace-min on a 1 MB binary
// heap with sift-downs of pseudo-random depth (cache-resident, branchy,
// dependent loads, like the event heap). It is a diagnostic, run before and
// after each part of a workload: bench.calib_ms tells a slow machine from a
// slow program, and a run during which it drifts is marked UNRESOLVED. No
// metric is scaled by it.
var (
	calibHeap = make([]uint64, 128<<10)
	// calibOps is the work of one run of the kernel.
	calibOps = 200_000
)

// calibMs is the fastest of five runs of the kernel, in milliseconds.
func calibMs() float64 {
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		h := calibHeap
		for i := range h {
			h[i] = uint64(i) << 20
		}
		x := uint64(88172645463325252)
		t0 := now()
		for op := 0; op < calibOps; op++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key := h[0] + x&(1<<24-1)
			i := 0
			for {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] < h[c] {
					c++
				}
				if h[c] >= key {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = key
		}
		if ms := msSince(t0); rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}
