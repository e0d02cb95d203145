package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndp/scenario"
)

// tinyReq is the registry job every daemon test runs: the CI smoke incast
// (16 hosts, 8:1, 45KB), small enough for seconds-fast race-mode runs.
func tinyReq() JobRequest {
	return JobRequest{
		Scenario: "incast",
		Params:   scenario.Params{Hosts: 16, Degree: 8, FlowSize: 45_000},
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data []byte
}

// followSSE reads the job's event stream until the terminal result event
// (or the deadline) and returns every event in order.
func followSSE(t *testing.T, baseURL, id string) []sseEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/api/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "result" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	t.Fatalf("stream ended without a result event (%d events, scan err %v)", len(events), sc.Err())
	return nil
}

func postJob(t *testing.T, baseURL string, req JobRequest) (Status, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode < 300 {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestDaemonEndToEnd is the acceptance test of the daemon: N concurrent
// jobs for the same Spec+seed return Metrics bit-identical to a direct
// scenario.Run; every SSE stream delivers at least one progress event
// before the terminal result; and a repeated submission afterwards is a
// cache hit that executes zero new simulation events.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// The concurrency phase runs on a cache-disabled daemon: every one of
	// the N same-Spec submissions must execute a full simulation on the
	// pool (no single-flight dedup, no cache short-circuit — the tiny
	// incast finishes in milliseconds, so with a cache the later POSTs
	// would legitimately be hits and prove nothing about concurrency).
	srv := New(Config{Workers: 2, CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The ground truth: the same Spec run directly, no daemon involved.
	spec, err := tinyReq().buildSpec()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		st, code := postJob(t, ts.URL, tinyReq())
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, code)
		}
		if st.ID == "" || st.SpecHash != spec.Hash() || st.Seed != spec.Seed {
			t.Fatalf("job %d: bad status %+v", i, st)
		}
		ids[i] = st.ID
	}

	for i, id := range ids {
		events := followSSE(t, ts.URL, id)
		if len(events) < 2 {
			t.Fatalf("job %s: only %d SSE events", id, len(events))
		}
		if last := events[len(events)-1]; last.name != "result" {
			t.Fatalf("job %s: stream did not end with result: %q", id, last.name)
		}
		sawProgress := false
		for _, ev := range events[:len(events)-1] {
			if ev.name != "progress" {
				t.Fatalf("job %s: unexpected event %q before result", id, ev.name)
			}
			var pe progressEvent
			if err := json.Unmarshal(ev.data, &pe); err != nil {
				t.Fatalf("job %s: bad progress payload: %v", id, err)
			}
			if pe.Progress < 0 || pe.Progress > 1.0000001 {
				t.Fatalf("job %s: progress out of range: %+v", id, pe)
			}
			sawProgress = true
		}
		if !sawProgress {
			t.Fatalf("job %s: no progress event before the result", id)
		}
		var final Status
		if err := json.Unmarshal(events[len(events)-1].data, &final); err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone || final.Metrics == nil {
			t.Fatalf("job %s: terminal status %+v", id, final)
		}
		if final.Cached {
			t.Fatalf("job %s: first wave must not be served from cache", id)
		}
		if final.Events <= 0 {
			t.Fatalf("job %s: executed %d events, expected > 0", id, final.Events)
		}
		got, err := json.Marshal(final.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, directJSON) {
			t.Errorf("job %d (%s): daemon Metrics diverge from direct scenario.Run:\ndaemon %s\ndirect %s",
				i, id, got, directJSON)
		}
	}

	// Every one of the n submissions ran for real on the cache-less pool.
	var pool PoolStatus
	getJSON(t, ts.URL+"/api/workers", &pool)
	if pool.JobsDone != n {
		t.Errorf("pool reports %d jobs done, want %d", pool.JobsDone, n)
	}
	if pool.Cache.Cap != 0 || pool.Cache.Entries != 0 {
		t.Errorf("cache should be disabled on this daemon: %+v", pool.Cache)
	}

	// The cache phase runs on a second daemon with the cache on: the first
	// submission executes, the repeat is a hit — born done, zero new events.
	csrv := New(Config{Workers: 2})
	cts := httptest.NewServer(csrv)
	defer cts.Close()

	first, code := postJob(t, cts.URL, tinyReq())
	if code != http.StatusAccepted {
		t.Fatalf("cache-phase submit: status %d, want 202", code)
	}
	fevents := followSSE(t, cts.URL, first.ID)
	var ffinal Status
	if err := json.Unmarshal(fevents[len(fevents)-1].data, &ffinal); err != nil {
		t.Fatal(err)
	}
	if ffinal.State != StateDone || ffinal.Cached || ffinal.Events <= 0 {
		t.Fatalf("cache-phase first run: %+v", ffinal)
	}
	// The job document carries the engine block `ndpsim -scenario` prints.
	if e := ffinal.Engine; e.Events != ffinal.Events || e.PacketHops <= 0 || e.Queue.WheelPops == 0 || e.PacketsLeaked != 0 {
		t.Errorf("first run's engine block: %+v", e)
	}

	var before PoolStatus
	getJSON(t, cts.URL+"/api/workers", &before)
	st, code := postJob(t, cts.URL, tinyReq())
	if code != http.StatusOK {
		t.Fatalf("cache hit should answer 200, got %d", code)
	}
	if !st.Cached || st.State != StateDone || st.Events != 0 || !reflect.DeepEqual(st.Engine, scenario.RunStats{}) {
		t.Fatalf("repeat submission not served from cache: %+v", st)
	}
	events := followSSE(t, cts.URL, st.ID)
	if len(events) < 2 || events[0].name != "progress" || events[len(events)-1].name != "result" {
		t.Fatalf("cached job stream malformed: %d events", len(events))
	}
	var cachedFinal Status
	if err := json.Unmarshal(events[len(events)-1].data, &cachedFinal); err != nil {
		t.Fatal(err)
	}
	gotCached, err := json.Marshal(cachedFinal.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCached, directJSON) {
		t.Errorf("cached Metrics diverge from direct run")
	}
	var after PoolStatus
	getJSON(t, cts.URL+"/api/workers", &after)
	if after.TotalEvents != before.TotalEvents {
		t.Errorf("cache hit executed events: total %d -> %d", before.TotalEvents, after.TotalEvents)
	}
	if after.Cache.Hits < 1 {
		t.Errorf("cache counters did not record the hit: %+v", after.Cache)
	}
	if after.Cache.Misses < 1 {
		t.Errorf("first submission should have missed: %+v", after.Cache)
	}
	if after.JobsDone != 1 {
		t.Errorf("cache daemon reports %d jobs done, want 1 (cache hits run nowhere)", after.JobsDone)
	}
}

// TestDaemonValidation pins the HTTP 400 path onto the shared
// scenario.Validate gate: the refusals carry the same supported-matrix
// messages the CLI prints.
func TestDaemonValidation(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		return resp.StatusCode, e.Error
	}

	cases := []struct {
		label, body, wantSub string
	}{
		{"backtoback+shards", `{"spec":{"topology":{"kind":"backtoback"},"shards":2}}`, "backtoback"},
		{"hosts<2", `{"spec":{"topology":{"kind":"twotier","tors":1,"hosts_per_tor":1,"spines":1}}}`, "at least 2 hosts"},
		{"shards<1", `{"spec":{"shards":-1}}`, "shards must be >= 0"},
		{"unknown scenario", `{"scenario":"nope"}`, "unknown scenario"},
		{"no scenario or spec", `{}`, "scenario"},
		{"both forms", `{"scenario":"incast","spec":{}}`, "mutually exclusive"},
		{"unknown field", `{"scenario":"incast","prams":{}}`, "unknown field"},
		{"bad json", `{`, "bad request"},
	}
	for _, c := range cases {
		code, msg := post(c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.label, code, msg)
		}
		if !strings.Contains(msg, c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.label, msg, c.wantSub)
		}
	}

	if code := func() int {
		resp, err := http.Get(ts.URL + "/api/jobs/job-424242")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}(); code != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", code)
	}
}

// endlessBody is a request body that never ends: a JSON string of 'a's. It
// counts what the server read of it.
type endlessBody struct{ read int }

func (b *endlessBody) Read(p []byte) (int, error) {
	n := copy(p, `{"scenario":"`[min(b.read, 13):])
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	b.read += len(p)
	return len(p), nil
}

// TestDaemonBoundsRequestBody: a body past maxRequestBody is refused with
// 413 once the bound is reached — the daemon neither reads nor buffers the
// rest — and the job table is untouched.
func TestDaemonBoundsRequestBody(t *testing.T) {
	srv := New(Config{Workers: 1})
	body := &endlessBody{}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if body.read < maxRequestBody || body.read > 2*maxRequestBody {
		t.Errorf("the daemon read %d bytes of an endless body, want about %d", body.read, maxRequestBody)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "too large") {
		t.Errorf("error envelope %q (%v) does not say the body was too large", rec.Body, err)
	}
	if n := len(srv.jobs); n != 0 {
		t.Errorf("%d jobs were created", n)
	}

	// A body of exactly the bound is still read to its end and judged as JSON.
	rec = httptest.NewRecorder()
	pad := strings.Repeat(" ", maxRequestBody-len(`{"scenario":"nope"}`))
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/jobs", strings.NewReader(`{"scenario":"nope"}`+pad)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown scenario") {
		t.Errorf("a body of exactly the bound: status %d (%s), want 400 unknown scenario", rec.Code, rec.Body)
	}
}

// TestDaemonBoundsTopologyCost: a Spec whose topology is past
// maxTopologyHosts is refused with 400 naming the bound, before anything is
// built — FatTree(64) was accepted and tried to build 65,536 hosts — whether
// it arrives as scenario params or as an explicit Spec, and whatever
// dimension carries the size. The largest topology the paper uses passes the
// gate (it is judged, not run: the queue here has no worker to take it).
func TestDaemonBoundsTopologyCost(t *testing.T) {
	srv := New(Config{Workers: 1})
	spec := func(t scenario.Topology) JobRequest {
		return JobRequest{Spec: &scenario.Spec{Topology: t, Workload: scenario.Permutation()}}
	}
	for name, req := range map[string]JobRequest{
		"params":    {Scenario: "permutation", Params: scenario.Params{Hosts: 65536}},
		"spec":      spec(scenario.FatTree(64)),
		"twotier":   spec(scenario.TwoTier(128, 128, 4)),
		"spines":    spec(scenario.TwoTier(4, 4, 1_000_000)),
		"overflows": spec(scenario.FatTree(1 << 22)), // k*k*k/4 wraps to zero hosts
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/jobs", bytes.NewReader(body)))
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest ||
			!strings.Contains(e.Error, "too large") || !strings.Contains(e.Error, "8192") {
			t.Errorf("%s: status %d, body %s; want 400 naming the 8192-host bound", name, rec.Code, rec.Body)
		}
	}
	if n := len(srv.jobs); n != 0 {
		t.Errorf("%d jobs were created", n)
	}
	if err := checkTopologyCost(scenario.FatTree(32)); err != nil {
		t.Errorf("the paper's 8192-host FatTree must pass: %v", err)
	}
}

// TestDaemonBoundsJobRetention: the daemon remembers the most recent
// maxFinishedJobs finished jobs, not every job it has ever run (each pins
// its full per-flow Metrics). An evicted id answers 404, a job that has not
// finished is never evicted however old it is, and the result cache — a
// bound of its own — is untouched.
func TestDaemonBoundsJobRetention(t *testing.T) {
	srv := New(Config{Workers: 1})
	first, code, err := srv.Submit(tinyReq())
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, %v", code, err)
	}
	nudge, cancel := first.subscribe()
	for !first.status(false).State.Terminal() {
		<-nudge
	}
	cancel()

	// A job that is accepted and never runs: older than everything below.
	waiting := newJob(first.Spec)
	srv.mu.Lock()
	srv.register(waiting)
	srv.mu.Unlock()

	const extra = 44
	var last *Job
	for i := 0; i < maxFinishedJobs+extra; i++ {
		if last, code, err = srv.Submit(tinyReq()); err != nil || code != http.StatusOK {
			t.Fatalf("repeat %d: status %d, %v; want a cache hit", i, code, err)
		}
	}
	srv.mu.Lock()
	held, listed, finished := len(srv.jobs), len(srv.order), len(srv.finished)
	srv.mu.Unlock()
	if held != maxFinishedJobs+1 || listed != held || finished != maxFinishedJobs {
		t.Errorf("after %d finished jobs the daemon holds %d (%d listed, %d finished), want %d finished and the waiting one",
			maxFinishedJobs+extra+1, held, listed, finished, maxFinishedJobs)
	}
	get := func(id string) (Status, int) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/jobs/"+id, nil))
		var st Status
		json.Unmarshal(rec.Body.Bytes(), &st) //nolint:errcheck // a 404 body is an error envelope
		return st, rec.Code
	}
	if _, code := get(first.ID); code != http.StatusNotFound {
		t.Errorf("the oldest finished job answers %d, want 404", code)
	}
	if st, code := get(last.ID); code != http.StatusOK || st.State != StateDone || st.Metrics == nil {
		t.Errorf("the newest finished job answers %d in state %q (metrics %v)", code, st.State, st.Metrics != nil)
	}
	if st, code := get(waiting.ID); code != http.StatusOK || st.State != StateQueued {
		t.Errorf("a job that never finished answers %d in state %q, want 200 queued", code, st.State)
	}
	if cs := srv.cache.stats(); cs.Entries != 1 || cs.Hits != maxFinishedJobs+extra {
		t.Errorf("result cache after the evictions: %+v, want 1 entry and %d hits", cs, maxFinishedJobs+extra)
	}
}

// TestDaemonCatalog checks /api/catalog serves the registry in sorted
// order with runnable defaults.
func TestDaemonCatalog(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var entries []scenario.CatalogEntry
	if code := getJSON(t, ts.URL+"/api/catalog", &entries); code != http.StatusOK {
		t.Fatalf("catalog: status %d", code)
	}
	want := []string{"failure", "incast", "permutation", "random", "rpc"}
	if len(entries) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, e.Name, want[i])
		}
		if err := scenario.Validate(e.Defaults); err != nil {
			t.Errorf("%s: defaults invalid: %v", e.Name, err)
		}
	}
}

// TestDaemonDrain checks the graceful-shutdown contract: Drain finishes
// accepted jobs, further submissions bounce with 503, and Drain is
// idempotent.
func TestDaemonDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, code := postJob(t, ts.URL, tinyReq())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var final Status
	if code := getJSON(t, ts.URL+"/api/jobs/"+st.ID, &final); code != http.StatusOK {
		t.Fatalf("job after drain: status %d", code)
	}
	if final.State != StateDone {
		t.Fatalf("drain returned before the job finished: %+v", final)
	}
	if _, code := postJob(t, ts.URL, tinyReq()); code != http.StatusServiceUnavailable {
		t.Errorf("submission while drained: status %d, want 503", code)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestQueueFull checks the bounded-queue contract: a queue at capacity
// answers 503 without registering the job.
func TestQueueFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// One worker, one queue slot: the first job occupies the worker, the
	// second sits in the queue, the third must bounce.
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Distinct seeds so none of this is served from cache; permutation is
	// slow enough (~hundreds of ms) that the worker is still busy with the
	// first job while the later submissions arrive.
	for i := uint64(0); ; i++ {
		req := JobRequest{Scenario: "permutation", Params: scenario.Params{Hosts: 16}, Seed: 100 + i}
		_, code := postJob(t, ts.URL, req)
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if i > 8 {
			t.Fatal("queue never filled")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var jobs []Status
	getJSON(t, ts.URL+"/api/jobs", &jobs)
	for _, j := range jobs {
		if !j.State.Terminal() {
			t.Errorf("job %s left in state %s after drain", j.ID, j.State)
		}
	}
}
