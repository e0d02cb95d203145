// Package simd turns the NDP simulator into a long-running
// simulation-as-a-service daemon: an HTTP/JSON job server that validates
// scenario.Spec submissions up front, queues them on a bounded worker
// pool, streams per-job progress and final Metrics over Server-Sent
// Events, and answers repeated what-if queries from a content-addressed
// result cache keyed by (canonical Spec hash, seed). A submission whose key
// matches a job still queued or running follows that job instead of running
// again (single-flight): it takes no queue slot and finishes with the
// leader's Metrics, or with its error.
//
// The API surface (see the README "Running as a service" section):
//
//	POST /api/jobs             submit a JobRequest; 202 queued or following, 200 cache hit
//	GET  /api/jobs             list jobs (compact, no Metrics)
//	GET  /api/jobs/{id}        one job, Metrics included once done
//	GET  /api/jobs/{id}/events SSE: progress events, then one result event
//	GET  /api/workers          pool, queue and cache introspection
//	GET  /api/catalog          the named-scenario registry
//
// Determinism extends across the API boundary: a job's Metrics are
// bit-identical to a direct scenario.Run of the same Spec+seed, no matter
// how many daemon workers run concurrently or whether the answer came
// from the cache (pinned by TestDaemonEndToEnd).
package simd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ndp/scenario"
)

// Config sizes the daemon. The zero value is runnable: one worker per
// core, a 256-deep queue, and a 128-entry result cache.
type Config struct {
	// Workers is the number of simulations run concurrently. 0 means
	// runtime.GOMAXPROCS(0). (Each job may additionally parallelize
	// inside itself via Spec.Workers/Shards; the two compose.)
	Workers int
	// QueueDepth bounds the accepted-but-not-started backlog; a full
	// queue rejects submissions with 503 rather than buffering without
	// bound. 0 means 256.
	QueueDepth int
	// CacheEntries bounds the LRU result cache. 0 means 128; negative
	// disables caching, single-flight included: every job then runs.
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 128
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	return c
}

// maxFinishedJobs bounds how many finished (done or failed) jobs stay
// addressable. A finished job pins its full per-flow Metrics, so without a
// bound the daemon's memory grows with every job it has ever run. Queued and
// running jobs are bounded by QueueDepth and Workers and are never evicted.
const maxFinishedJobs = 256

// maxTopologyHosts bounds what one request may ask the daemon to build: the
// largest topology the paper and `ndpsim -full` use (the 8192-host FatTree).
// Memory and set-up time grow with the host count before a single event
// runs, so a FatTree(64) Spec — 65,536 hosts — must be refused, not tried.
// The CLI is not bounded: its user owns the machine.
const maxTopologyHosts = 8192

// checkTopologyCost refuses a topology past maxTopologyHosts, in hosts or in
// any one dimension (a tier of switches costs what a tier of hosts does, and
// a dimension within the bound keeps the host count from overflowing).
func checkTopologyCost(t scenario.Topology) error {
	size := max(t.Hosts(), t.K, t.Oversub, t.ToRs, t.HostsPerToR, t.Spines, t.Switches, t.HostsPerSwitch, t.Degree)
	if size > maxTopologyHosts {
		return fmt.Errorf("simd: topology %s is too large for the daemon: %d hosts (or switches in one tier), at most %d are built per job",
			t, size, maxTopologyHosts)
	}
	return nil
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
// Create with New, serve with net/http, stop with Drain.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // submission order, for listing
	finished []*Job // done or failed, oldest first; at most maxFinishedJobs
	// inflight maps a cache key to the queued or running job computing it,
	// which later submissions of the key follow.
	inflight map[string]*Job
	nextID   int
	draining bool

	workers     []workerState
	jobsDone    atomic.Int64
	jobsFailed  atomic.Int64
	totalEvents atomic.Int64 // simulation events executed by this daemon
}

// workerState is one pool worker's introspection record.
type workerState struct {
	mu       sync.Mutex
	job      string // current job id, "" when idle
	jobsDone int64
	events   int64
}

// New builds the daemon and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		cache:    newResultCache(cfg.withDefaults().CacheEntries),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
	}
	s.queue = make(chan *Job, s.cfg.QueueDepth)
	s.workers = make([]workerState, s.cfg.Workers)
	for i := range s.workers {
		s.wg.Add(1)
		go s.worker(i)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// ServeHTTP makes the Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Submit validates and accepts one job. The returned HTTP status is 202
// for a queued job or one that follows an identical job in flight, 200 for
// a cache hit (the job is born done), 400 for a Spec the shared
// scenario.Validate gate refuses or whose topology is past
// maxTopologyHosts, and 503 when draining or when the bounded queue is full.
func (s *Server) Submit(req JobRequest) (*Job, int, error) {
	spec, err := req.buildSpec()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if err := checkTopologyCost(spec.Topology); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if err := scenario.Validate(spec); err != nil {
		return nil, http.StatusBadRequest, err
	}
	job := newJob(spec)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, errors.New("simd: draining, not accepting jobs")
	}
	if m, ok := s.cache.get(job.Key); ok {
		s.register(job)
		s.mu.Unlock()
		job.completeFromCache(m)
		s.retire(job)
		return job, http.StatusOK, nil
	}
	// Single-flight is the in-flight half of the cache: a daemon without a
	// cache runs every job.
	singleFlight := s.cfg.CacheEntries > 0
	if leader, ok := s.inflight[job.Key]; ok {
		s.register(job)
		leader.followers = append(leader.followers, job)
		s.mu.Unlock()
		return job, http.StatusAccepted, nil
	}
	// Register (assigning the id) before enqueueing: a worker may dequeue
	// the instant the send lands, and it must see a fully-formed job. The
	// rollback below still holds s.mu, so nothing observed the id.
	s.register(job)
	select {
	case s.queue <- job:
		if singleFlight {
			s.inflight[job.Key] = job
		}
		s.mu.Unlock()
		return job, http.StatusAccepted, nil
	default:
		delete(s.jobs, job.ID)
		s.order = s.order[:len(s.order)-1]
		s.nextID--
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("simd: job queue full (%d jobs waiting)", s.cfg.QueueDepth)
	}
}

// register assigns the job its id and adds it to the lookup structures;
// caller holds s.mu. Rejected submissions (queue full) never get here, so
// ids stay dense and JobsSubmitted counts accepted jobs only.
func (s *Server) register(job *Job) {
	s.nextID++
	job.ID = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[job.ID] = job
	s.order = append(s.order, job)
}

// retire records that job has finished and forgets the oldest finished job
// beyond maxFinishedJobs: its id answers 404 from then on. The result cache
// is a separate bound (CacheEntries) and keeps the evicted job's Metrics for
// as long as its own LRU order says.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job)
	if len(s.finished) <= maxFinishedJobs {
		return
	}
	old := s.finished[0]
	s.finished = slices.Delete(s.finished, 0, 1)
	delete(s.jobs, old.ID)
	i := slices.Index(s.order, old)
	s.order = slices.Delete(s.order, i, i+1)
}

// lookup returns a job by id, or nil.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker is one pool goroutine: it drains the queue until Drain closes it.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	ws := &s.workers[i]
	for job := range s.queue {
		ws.mu.Lock()
		ws.job = job.ID
		ws.mu.Unlock()
		s.runJob(ws, job)
		ws.mu.Lock()
		ws.job = ""
		ws.mu.Unlock()
	}
}

// runJob executes one simulation with the job's observe hook installed,
// publishes the result to the job and its followers, and feeds the cache.
// RunWithStats already converts simulation panics into errors, so a poisoned
// Spec fails one job and its followers, never the worker.
func (s *Server) runJob(ws *workerState, job *Job) {
	job.start()
	spec := job.Spec.With(scenario.WithProgress(job.observe))
	m, stats, err := scenario.RunWithStats(spec)
	if err == nil {
		s.cache.put(job.Key, m)
		s.jobsDone.Add(1)
		s.totalEvents.Add(stats.Events)
		ws.mu.Lock()
		ws.jobsDone++
		ws.events += stats.Events
		ws.mu.Unlock()
	} else {
		s.jobsFailed.Add(1)
	}
	s.settle(job, m, stats, err)
}

// settle finishes a job that ran, and every job that followed it, with its
// Metrics or its error. The key leaves inflight only after the cache holds
// the result, so a submission in between finds one or the other.
func (s *Server) settle(job *Job, m *scenario.Metrics, stats scenario.RunStats, err error) {
	s.mu.Lock()
	delete(s.inflight, job.Key)
	followers := job.followers
	job.followers = nil
	s.mu.Unlock()
	if err != nil {
		job.fail(err)
	} else {
		job.finish(m, stats)
	}
	s.retire(job)
	for _, f := range followers {
		if err != nil {
			f.fail(err)
		} else {
			f.completeFromCache(m)
		}
		s.retire(f)
	}
}

// Drain stops accepting submissions, lets every queued and running job
// finish, and returns when the pool is idle — or with ctx's error if the
// deadline passes first. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WorkerStatus is one pool worker's row in the /api/workers report.
type WorkerStatus struct {
	ID       int    `json:"id"`
	State    string `json:"state"` // "idle" | "busy"
	Job      string `json:"job,omitempty"`
	JobsDone int64  `json:"jobs_done"`
	Events   int64  `json:"events"`
}

// PoolStatus is the /api/workers report: per-worker load, queue fill, and
// cache effectiveness — the capacity-planning view of the daemon itself.
type PoolStatus struct {
	Workers       []WorkerStatus `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCap      int            `json:"queue_cap"`
	Draining      bool           `json:"draining"`
	JobsSubmitted int64          `json:"jobs_submitted"`
	JobsDone      int64          `json:"jobs_done"`
	JobsFailed    int64          `json:"jobs_failed"`
	TotalEvents   int64          `json:"total_events"`
	Cache         CacheStats     `json:"cache"`
}

func (s *Server) poolStatus() PoolStatus {
	s.mu.Lock()
	submitted := int64(s.nextID)
	draining := s.draining
	s.mu.Unlock()
	st := PoolStatus{
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.QueueDepth,
		Draining:      draining,
		JobsSubmitted: submitted,
		JobsDone:      s.jobsDone.Load(),
		JobsFailed:    s.jobsFailed.Load(),
		TotalEvents:   s.totalEvents.Load(),
		Cache:         s.cache.stats(),
	}
	for i := range s.workers {
		ws := &s.workers[i]
		ws.mu.Lock()
		row := WorkerStatus{ID: i, State: "idle", Job: ws.job, JobsDone: ws.jobsDone, Events: ws.events}
		ws.mu.Unlock()
		if row.Job != "" {
			row.State = "busy"
		}
		st.Workers = append(st.Workers, row)
	}
	return st
}
