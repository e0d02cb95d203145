// Package stats provides the measurement primitives the evaluation harness
// uses to regenerate the paper's tables and figures: sample distributions
// with exact quantiles (FCT CDFs), goodput time series (Figure 19), and
// small helpers for utilization and fairness summaries.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ndp/internal/sim"
)

// Dist collects float64 samples and answers quantile/mean queries exactly
// (sorting on demand). It is the workhorse for FCT and latency CDFs.
type Dist struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Grow reserves room for n more samples, so a caller that knows its sample
// count up front pays one allocation instead of a doubling series.
func (d *Dist) Grow(n int) { d.samples = slices.Grow(d.samples, n) }

// AddTime appends a sim.Time sample in microseconds (the paper's usual
// axis unit).
func (d *Dist) AddTime(t sim.Time) { d.Add(t.Micros()) }

// N returns the sample count.
func (d *Dist) N() int { return len(d.samples) }

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest-rank on the
// sorted samples; 0 if empty.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	idx := int(math.Ceil(q*float64(len(d.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.samples) {
		idx = len(d.samples) - 1
	}
	return d.samples[idx]
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// Mean returns the arithmetic mean; 0 if empty.
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.samples {
		s += v
	}
	return s / float64(len(d.samples))
}

// Min returns the smallest sample; 0 if empty.
func (d *Dist) Min() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return d.samples[0]
}

// Max returns the largest sample; 0 if empty.
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	return d.samples[len(d.samples)-1]
}

// MeanOfBottom returns the mean of the lowest fraction frac of samples —
// the "worst 10% of flows" statistic of Figure 2 (for goodput, lower is
// worse).
func (d *Dist) MeanOfBottom(frac float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sort()
	n := int(math.Ceil(frac * float64(len(d.samples))))
	if n < 1 {
		n = 1
	}
	var s float64
	for _, v := range d.samples[:n] {
		s += v
	}
	return s / float64(n)
}

// CDFRow is one (value, cumulative fraction) point.
type CDFRow struct {
	Value float64
	Frac  float64
}

// CDF returns up to points evenly-spaced rows of the empirical CDF.
func (d *Dist) CDF(points int) []CDFRow {
	if len(d.samples) == 0 || points < 2 {
		return nil
	}
	d.sort()
	rows := make([]CDFRow, 0, points)
	for i := 0; i < points; i++ {
		f := float64(i+1) / float64(points)
		idx := int(math.Ceil(f*float64(len(d.samples)))) - 1
		rows = append(rows, CDFRow{Value: d.samples[idx], Frac: f})
	}
	return rows
}

// Summary formats the headline quantiles on one line.
func (d *Dist) Summary(unit string) string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g mean=%.4g %s",
		d.N(), d.Min(), d.Median(), d.Quantile(0.9), d.Quantile(0.99), d.Max(), d.Mean(), unit)
}

// TimeSeries accumulates byte counts into fixed-width bins and reports each
// bin as a rate — the goodput-over-time plots of Figure 19.
type TimeSeries struct {
	Bin  sim.Time
	bins []int64
}

// NewTimeSeries creates a series with the given bin width.
func NewTimeSeries(bin sim.Time) *TimeSeries { return &TimeSeries{Bin: bin} }

// Record adds bytes at time t.
func (ts *TimeSeries) Record(t sim.Time, bytes int64) {
	idx := int(t / ts.Bin)
	for len(ts.bins) <= idx {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[idx] += bytes
}

// RateGbps returns the per-bin goodput in Gb/s.
func (ts *TimeSeries) RateGbps() []float64 {
	out := make([]float64, len(ts.bins))
	sec := ts.Bin.Seconds()
	for i, b := range ts.bins {
		out[i] = float64(b) * 8 / sec / 1e9
	}
	return out
}

// JainIndex computes Jain's fairness index over per-flow throughputs:
// (sum x)^2 / (n * sum x^2); 1.0 is perfectly fair.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}

// Gbps converts bytes transferred in an interval to Gb/s.
func Gbps(bytes int64, interval sim.Time) float64 {
	if interval <= 0 {
		return 0
	}
	return float64(bytes) * 8 / interval.Seconds() / 1e9
}

// Table is a minimal fixed-width text table used by every experiment to
// print the rows/series the paper's figures plot. It marshals to JSON for
// machine-readable output (ndpsim -json).
type Table struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddFloats appends a row of %.4g-formatted values after a label.
func (t *Table) AddFloats(label string, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.4g", v))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	all := append([][]string{t.Header}, t.Rows...)
	width := make([]int, 0)
	for _, row := range all {
		for i, c := range row {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, row := range all {
		if ri == 1 {
			for i, w := range width {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := width[i] - len(c); pad > 0 && i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
