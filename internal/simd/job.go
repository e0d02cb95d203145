package simd

import (
	"errors"
	"sync"
	"time"

	"ndp/scenario"
)

// JobRequest is the POST /api/jobs body. Either name a registry scenario
// (scenario + params + the option fields, mirroring the ndpsim CLI flags)
// or carry a complete Spec under "spec" — the same JSON encoding
// scenario.Spec marshals to. The two forms are mutually exclusive.
type JobRequest struct {
	// Scenario is a registry name (see GET /api/catalog).
	Scenario string `json:"scenario,omitempty"`
	// Params tune the named scenario; zero values take its defaults.
	Params scenario.Params `json:"params,omitempty"`
	// Option fields layered onto the registry template. Zero means
	// "scenario default", exactly like the corresponding CLI flag.
	Transport string `json:"transport,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Repeats   int    `json:"repeats,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	Workers   int    `json:"workers,omitempty"`

	// Spec is a complete hand-assembled Spec; unset fields fill with the
	// scenario package defaults, and Seed 0 is honoured as a real seed.
	Spec *scenario.Spec `json:"spec,omitempty"`
}

// buildSpec resolves the request into a runnable Spec. Validation proper
// happens in Submit through scenario.Validate, the same gate the CLI uses.
func (r JobRequest) buildSpec() (scenario.Spec, error) {
	if r.Spec != nil {
		if r.Scenario != "" {
			return scenario.Spec{}, errors.New(`simd: "scenario" and "spec" are mutually exclusive`)
		}
		return *r.Spec, nil
	}
	if r.Scenario == "" {
		return scenario.Spec{}, errors.New(`simd: request needs a "scenario" name or an explicit "spec"`)
	}
	var opts []scenario.Option
	if r.Transport != "" {
		opts = append(opts, scenario.WithTransport(scenario.Transport(r.Transport)))
	}
	if r.Seed != 0 {
		opts = append(opts, scenario.WithSeed(r.Seed))
	}
	if r.Repeats != 0 {
		opts = append(opts, scenario.WithRepeats(r.Repeats))
	}
	if r.Shards != 0 {
		opts = append(opts, scenario.WithShards(r.Shards))
	}
	if r.Workers != 0 {
		opts = append(opts, scenario.WithWorkers(r.Workers))
	}
	return scenario.Build(r.Scenario, r.Params, opts...)
}

// State is a job's lifecycle position. Jobs move strictly queued ->
// running -> done|failed; a cache hit jumps straight to done.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one accepted submission. All mutable state sits behind mu; SSE
// subscribers never read it directly — they are nudged through their
// notify channels and pull an immutable Status snapshot, so a slow client
// coalesces updates instead of back-pressuring the simulation worker.
type Job struct {
	ID   string
	Spec scenario.Spec
	Key  string

	mu        sync.Mutex
	seq       uint64 // bumped on every externally visible change
	state     State
	cached    bool
	overall   float64 // monotonic overall progress in [0,1]
	done      int     // repetitions fully completed
	repeats   int
	metrics   *scenario.Metrics
	engine    scenario.RunStats // of the run this job made; zero for a cache hit
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	subs      map[chan struct{}]struct{}

	// followers are the identical submissions waiting on this job
	// (single-flight); guarded by the Server's mu, not by this job's.
	followers []*Job
}

func newJob(spec scenario.Spec) *Job {
	repeats := spec.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	return &Job{
		Spec:      spec,
		Key:       cacheKey(spec),
		state:     StateQueued,
		repeats:   repeats,
		submitted: time.Now(),
		subs:      map[chan struct{}]struct{}{},
	}
}

// Status is the JSON snapshot of a Job served by the handlers and carried
// in SSE result events.
type Status struct {
	ID          string            `json:"id"`
	State       State             `json:"state"`
	Scenario    string            `json:"scenario,omitempty"`
	SpecHash    string            `json:"spec_hash"`
	Seed        uint64            `json:"seed"`
	Cached      bool              `json:"cached"`
	Progress    float64           `json:"progress"`
	RepeatsDone int               `json:"repeats_done"`
	Repeats     int               `json:"repeats"`
	Events      int64             `json:"events"`
	Error       string            `json:"error,omitempty"`
	SubmittedAt time.Time         `json:"submitted_at"`
	StartedAt   *time.Time        `json:"started_at,omitempty"`
	FinishedAt  *time.Time        `json:"finished_at,omitempty"`
	Metrics     *scenario.Metrics `json:"metrics,omitempty"`
	// Engine is the RunStats block of the run, what `ndpsim -scenario`
	// prints under the Metrics; absent until the job has run, and for a
	// cache hit, which runs nothing.
	Engine scenario.RunStats `json:"engine,omitzero"`

	// seq lets the SSE loop detect changes without diffing snapshots.
	seq uint64
}

// status snapshots the job. withMetrics controls whether the (potentially
// large) Metrics payload rides along — job listings leave it out.
func (j *Job) status(withMetrics bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		State:       j.state,
		Scenario:    j.Spec.Name(),
		SpecHash:    j.Spec.Hash(),
		Seed:        j.Spec.Seed,
		Cached:      j.cached,
		Progress:    j.overall,
		RepeatsDone: j.done,
		Repeats:     j.repeats,
		Events:      j.engine.Events,
		Engine:      j.engine,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		seq:         j.seq,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if withMetrics {
		st.Metrics = j.metrics
	}
	return st
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// subscribe registers an SSE listener: a cap-1 nudge channel plus its
// deregistration func. Sends never block — a pending nudge already means
// "re-snapshot", so further ones coalesce.
func (j *Job) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

func (j *Job) notifyLocked() {
	j.seq++
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// observe is the scenario progress hook: it runs on the simulation's
// sweep-job workers, so it only folds the observation into the gauges and
// nudges subscribers. Overall progress is kept monotonic — concurrent
// repetitions report out of order.
func (j *Job) observe(p scenario.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if p.Repeat < 0 && p.Done > j.done {
		j.done = p.Done
	}
	if o := p.Overall(); o > j.overall {
		j.overall = o
	}
	j.notifyLocked()
}

func (j *Job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
	j.notifyLocked()
}

func (j *Job) finish(m *scenario.Metrics, engine scenario.RunStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.metrics = m
	j.engine = engine
	j.overall = 1
	j.done = j.repeats
	j.finished = time.Now()
	j.notifyLocked()
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	j.notifyLocked()
}

// completeFromCache finishes the job without running it: the Metrics come
// from the content-addressed cache, or from the identical job it followed,
// and zero simulation events run on its behalf.
func (j *Job) completeFromCache(m *scenario.Metrics) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.cached = true
	j.metrics = m
	j.overall = 1
	j.done = j.repeats
	j.started = j.submitted
	j.finished = time.Now()
	j.notifyLocked()
}
