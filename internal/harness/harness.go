// Package harness contains one runner per table and figure of the paper's
// evaluation (§5–§6). Each experiment builds its topology and transports,
// drives the workload, and returns the same rows/series the paper plots, so
// the whole evaluation can be regenerated with `ndpsim -exp all`.
//
// Experiments accept a Scale knob: 1.0 reproduces the paper's dimensions
// (432-host FatTrees and so on); smaller values shrink topology sizes and
// durations proportionally so the same code paths run in CI-friendly time.
//
// Every experiment decomposes into declarative sweep jobs (jobs.go): each
// sweep point is a self-contained simulation derived from a per-job seed,
// executed on a Workers-sized pool with deterministic result ordering, so
// `ndpsim -exp all` scales across cores without perturbing results.
package harness

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ndp/internal/stats"
)

// Options configures one experiment run.
type Options struct {
	// Scale in (0, 1]: 1.0 is paper scale. Experiments quantize it.
	Scale float64
	// Seed makes runs reproducible; experiments derive all RNGs from it.
	Seed uint64
	// Full unlocks extreme sizes (the 8192-host FatTree of Figure 20).
	Full bool
	// Workers sizes the sweep-job pool: each experiment decomposes into
	// independent seed-derived simulation jobs (see jobs.go) executed on
	// this many goroutines. 0 means runtime.GOMAXPROCS; 1 runs serially.
	// Results are bit-identical for every value with the same Seed.
	Workers int
	// Progress, when set, is called by RunJobs after each sweep job
	// completes with the count of jobs finished so far and the total.
	// Calls are serialized (done is strictly increasing) but arrive from
	// worker goroutines; the callback must be fast and must not touch the
	// pool. Purely observational: results are identical with or without.
	Progress func(done, total int)
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// pick quantizes the scale knob into one of three experiment sizes.
func (o Options) pick(small, medium, full int) int {
	switch {
	case o.Scale >= 0.99:
		return full
	case o.Scale >= 0.4:
		return medium
	default:
		return small
	}
}

// Result is an experiment's output: one or more labelled tables, notes
// stating the shape the paper reports, and the claims that decide, from the
// numbers in the tables, whether this run shows it. It marshals to JSON for
// machine-readable output (ndpsim -json).
type Result struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Tables []*stats.Table `json:"tables"`
	Labels []string       `json:"labels"` // one per table
	Notes  []string       `json:"notes,omitempty"`
	Claims []Claim        `json:"claims"`
}

// Claim is one executable part of an experiment's paper-shape note: Name
// states it with its threshold, Pass says whether this run shows it, and Got
// holds the measured numbers it was decided on.
type Claim struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	Got  string `json:"got"`
}

// AddTable appends a labelled table.
func (r *Result) AddTable(label string, t *stats.Table) {
	r.Tables = append(r.Tables, t)
	r.Labels = append(r.Labels, label)
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Check records a claim, decided by the runner from the numbers it just put
// in its tables; format and args render those numbers as the claim's Got.
func (r *Result) Check(name string, pass bool, format string, args ...any) {
	r.Claims = append(r.Claims, Claim{Name: name, Pass: pass, Got: fmt.Sprintf(format, args...)})
}

// String renders the tables and notes for the CLI. Claims are not part of
// it, so a claim never moves the digest benchmark/expected.json pins.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for i, t := range r.Tables {
		if r.Labels[i] != "" {
			fmt.Fprintf(&b, "-- %s --\n", r.Labels[i])
		}
		b.WriteString(t.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Result
}

var registry = map[string]*Experiment{}

// Register adds an experiment; it panics on duplicate ids (programmer
// error at init time).
func Register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns an experiment by id, or nil.
func Get(id string) *Experiment { return registry[id] }

// All returns every experiment sorted by id. Sorted-key iteration keeps the
// traversal deterministic (maporder): callers run experiments in this
// order, so map order must not pick it.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, id := range slices.Sorted(maps.Keys(registry)) {
		out = append(out, registry[id])
	}
	return out
}

// run is the internal helper experiments use at registration time.
func run(id, title string, fn func(o Options, r *Result)) {
	Register(&Experiment{ID: id, Title: title, Run: func(o Options) *Result {
		o = o.withDefaults()
		// Four is the most claims a runner checks: one allocation holds them.
		r := &Result{ID: id, Title: title, Claims: make([]Claim, 0, 4)}
		fn(o, r)
		return r
	}})
}

func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}
