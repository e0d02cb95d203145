package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ndp/scenario"
)

// routes wires the API onto the mux. Method-qualified patterns (Go 1.22
// ServeMux) give us 405s for free.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /api/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /api/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /api/catalog", s.handleCatalog)
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hung up; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxRequestBody bounds a POST /api/jobs body. A JobRequest with a full
// inline Spec is a few hundred bytes; the decoder buffers what it reads, so
// without a bound one request could make the daemon hold a body of any size.
const maxRequestBody = 1 << 20

// handleSubmit accepts a JobRequest. Unknown fields are rejected so a
// misspelled knob fails loudly instead of silently running the default —
// the HTTP twin of the CLI's strict flag validation.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("simd: bad request body: %w", err))
		return
	}
	job, code, err := s.Submit(req)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, code, job.status(false))
}

// handleJobs lists every job in submission order, compact (no Metrics).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.status(true))
}

// progressEvent is the compact SSE progress payload — enough to drive a
// gauge without shipping Metrics on every tick.
type progressEvent struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Cached      bool    `json:"cached"`
	Progress    float64 `json:"progress"`
	RepeatsDone int     `json:"repeats_done"`
	Repeats     int     `json:"repeats"`
}

// handleJobEvents streams the job over Server-Sent Events: one or more
// `progress` events followed by exactly one terminal `result` event
// carrying the full Status (Metrics or error). The first progress event is
// written unconditionally on attach, so every stream — even one opened
// after the job finished, or for a cache-born job — delivers at least one
// progress event before the result. Updates coalesce through the cap-1
// nudge channel: a slow client skips intermediate snapshots instead of
// back-pressuring the simulation.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("simd: no job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("simd: response writer cannot stream"))
		return
	}
	notify, cancel := job.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var lastSeq uint64
	first := true
	for {
		st := job.status(true)
		if first || st.seq != lastSeq {
			first = false
			lastSeq = st.seq
			writeSSE(w, "progress", progressEvent{
				ID: st.ID, State: st.State, Cached: st.Cached,
				Progress: st.Progress, RepeatsDone: st.RepeatsDone, Repeats: st.Repeats,
			})
			if st.State.Terminal() {
				writeSSE(w, "result", st)
				fl.Flush()
				return
			}
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
	}
}

// writeSSE emits one named event. The payload is a single JSON document,
// which never contains a raw newline, so one data: line suffices.
func writeSSE(w http.ResponseWriter, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.poolStatus())
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scenario.CatalogEntries())
}
