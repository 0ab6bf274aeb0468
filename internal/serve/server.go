package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ropus/internal/telemetry"
)

// maxBodyBytes bounds a submission body; traces are inline CSV, so the
// limit is generous but finite.
const maxBodyBytes = 64 << 20

// Server is the HTTP face of the planning service.
//
//	POST /v1/jobs             submit a JobSpec     202 created / 200 existing /
//	                                               400 invalid / 429 shed / 503 draining
//	                          X-Ropus-Tenant names the admission class
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status, progress counters, result when done
//	GET  /v1/jobs/{id}/events Server-Sent Events stream of status changes
//	GET  /v1/jobs/{id}/trace  Chrome trace_event export of the job's spans
//	GET  /v1/slo              windowed latency quantiles and error-budget burn
//	GET  /metrics             Prometheus text exposition of the serve_* metrics
//	GET  /debug/flight        flight-recorder snapshot (?trace= filters by trace ID)
//	GET  /healthz             liveness and drain state
type Server struct {
	mgr      *Manager
	reg      *telemetry.Registry
	httpSrv  *http.Server
	ln       net.Listener
	draining atomic.Bool

	requestsC *telemetry.Counter
}

// New builds a server (and its manager) listening on addr. Pass addr
// "127.0.0.1:0" in tests and read the bound address from Addr.
func New(addr string, cfg Config) (*Server, error) {
	reg := telemetry.NewRegistry()
	hooks := telemetry.New(reg, nil)
	mgr, err := NewManager(cfg, hooks)
	if err != nil {
		return nil, err
	}
	s := &Server{
		mgr:       mgr,
		reg:       reg,
		requestsC: hooks.Counter("serve_http_requests_total"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.httpSrv = &http.Server{Handler: s.count(mux)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Manager exposes the job manager (tests and the CLI status line).
func (s *Server) Manager() *Manager { return s.mgr }

// Run serves until ctx is cancelled, then drains: admission flips to
// 503, in-flight jobs stop at their next checkpoint boundary and are
// journaled, and open connections get DrainTimeout to finish. A drained
// shutdown returns nil; the state directory lets a restarted server
// resume where this one stopped.
func (s *Server) Run(ctx context.Context) error {
	s.mgr.Start(ctx)
	errc := make(chan error, 1)
	go func() {
		if err := s.httpSrv.Serve(s.ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	s.draining.Store(true)
	s.mgr.SetDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.mgr.cfg.DrainTimeout)
	defer cancel()
	err := s.httpSrv.Shutdown(shutdownCtx)
	s.mgr.Wait()
	if err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}

// count wraps the mux with the request counter.
func (s *Server) count(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requestsC.Inc()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	// The header wins over a tenant embedded in the spec body: the
	// header is what a gateway stamps after authentication.
	if tenant := r.Header.Get("X-Ropus-Tenant"); tenant != "" {
		spec.Tenant = tenant
	}
	status, created, err := s.mgr.Submit(spec)
	switch {
	case err == nil:
		code := http.StatusOK
		if created {
			code = http.StatusAccepted
		}
		writeJSON(w, code, status)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		var overloaded *OverloadedError
		if errors.As(err, &overloaded) {
			secs := int(overloaded.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// The list view carries no result payloads or progress blocks: a
	// job's full result (which can embed the entire report) is served by
	// its own endpoint.
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	status, ok := s.mgr.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleJobEvents streams the job's status as Server-Sent Events: one
// "status" event per observed change (state transitions and progress-
// counter movement), then a terminal event and EOF once the job
// finishes. Clients watching a job stop polling GET /v1/jobs/{id}; the
// stream also survives the job being executed by a peer instance,
// because the scanner folds remote completions into the local table.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, ok := s.mgr.status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(s.mgr.cfg.SSEPoll)
	defer ticker.Stop()
	var last []byte
	for {
		status.Result = nil // a result pinned by a failed write; the job endpoint serves it
		data, err := json.Marshal(status)
		if err == nil && string(data) != string(last) {
			last = data
			fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
			flusher.Flush()
		}
		if terminalState(status.State) {
			fmt.Fprintf(w, "event: end\ndata: {\"state\":%q}\n\n", status.State)
			flusher.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		status, ok = s.mgr.status(id)
		if !ok {
			return
		}
	}
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.mgr.status(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	tracer := s.mgr.Tracer(id)
	if tracer == nil {
		// Recovered-from-disk jobs ran in a previous process, and the
		// trace budget evicts the oldest finished jobs' spans.
		writeError(w, http.StatusNotFound, "no trace recorded for this job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tracer.WriteChromeTrace(w)
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	// Sync so the JSON snapshot and the /metrics gauges agree.
	writeJSON(w, http.StatusOK, s.mgr.SLO().Sync(s.reg))
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.mgr.Flight().WriteJSON(w, "debug", r.URL.Query().Get("trace"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mgr.SLO().Sync(s.reg) // refresh the slo_* gauges before rendering
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheusText(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running := s.mgr.QueueDepths()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"instance": s.mgr.Instance(),
		"draining": s.draining.Load(),
		"queued":   queued,
		"running":  running,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
