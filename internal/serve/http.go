package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202; 200 on an
//	                            Idempotency-Key replay; 400, 429, 503)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result payload (202 while not terminal)
//	GET    /v1/jobs/{id}/events lifecycle stream (server-sent events)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness + queue summary
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// The idempotency key rides either the request body or the standard
	// Idempotency-Key header (the body, when set, wins).
	if key := r.Header.Get("Idempotency-Key"); key != "" && req.IdempotencyKey == "" {
		req.IdempotencyKey = key
	}
	st, created, err := s.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Back off roughly one job's worth of service time.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	if !created {
		// Idempotent replay: the key named an already-accepted job.
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultBody wraps a terminal job's status and payload.
type resultBody struct {
	Status Status `json:"status"`
	Result any    `json:"result,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, res, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !st.State.terminal() {
		// Not done yet: 202 with the live status, so clients can poll
		// the same URL until the payload appears.
		writeJSON(w, http.StatusAccepted, resultBody{Status: st})
		return
	}
	writeJSON(w, http.StatusOK, resultBody{Status: st, Result: res})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// healthBody is the /healthz JSON shape.
type healthBody struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Jobs          int     `json:"jobs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := healthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.pending),
		QueueCapacity: s.cfg.QueueDepth,
		Jobs:          len(s.jobs),
	}
	if s.draining {
		body.Status = "draining"
	}
	s.mu.Unlock()
	code := http.StatusOK
	if body.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}
