package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
)

// MaxRequestBody bounds a POST /v1/infer body; a full MaxBatch of rows at
// Graph Challenge widths is a few MB of JSON, so 64 MiB is generous. The
// router buffers no more of a request than a backend would accept, and
// Client reads no more of a reply.
const MaxRequestBody = 64 << 20

// Header names the cluster router uses to forward QoS metadata alongside
// the (unmodified) request body: the canonical class and the remaining
// deadline budget in milliseconds, recomputed per forward attempt so
// retries and failovers shrink the budget instead of resetting it. When
// present, the headers take precedence over the body's class/deadline_ms.
const (
	HeaderClass      = "X-Radix-Class"
	HeaderDeadlineMs = "X-Radix-Deadline-Ms"
)

// maxDeadlineMs clamps a request's deadline budget BEFORE the float→
// Duration multiply: ~31.7 years in milliseconds, far beyond any real
// budget but small enough that ms×1e6 can never overflow int64 to a
// negative Duration — an unclamped 1e15 would wrap an effectively
// unbounded deadline into an instantly-expired one (the same overflow
// class the router's Retry-After parser clamps against).
const maxDeadlineMs = 1e12

// DeadlineFromMs converts a deadline_ms budget to an absolute deadline
// from now, overflow-clamped; budgets ≤ 0 — and NaN, which strconv.ParseFloat
// accepts from a header and which converts to a Duration 292 years in the
// past — mean "no deadline" (zero time). Shared by the HTTP handler and the
// cluster router.
func DeadlineFromMs(ms float64) time.Time {
	if !(ms > 0) {
		return time.Time{}
	}
	if ms > maxDeadlineMs {
		ms = maxDeadlineMs
	}
	return time.Now().Add(time.Duration(ms * float64(time.Millisecond)))
}

// InferRequest is the POST /v1/infer body.
type InferRequest struct {
	// Model names a registered model.
	Model string `json:"model"`
	// Inputs are the request rows, each InputWidth long. Rows of one
	// request coalesce with concurrent requests' rows into shared engine
	// batches.
	Inputs [][]float64 `json:"inputs"`
	// Class names the request's priority class (one of the registry's
	// configured classes; empty means the registry's default class).
	// Unknown classes are refused with 422 before any row is queued.
	Class string `json:"class,omitempty"`
	// DeadlineMs is the request's deadline budget in milliseconds from
	// arrival. Rows still queued when it expires are shed (never executed)
	// and the request fails with 504. 0 means no deadline.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Categories additionally reports, per row, whether any activation
	// survived (the Graph Challenge category criterion) and the argmax
	// neuron.
	Categories bool `json:"categories,omitempty"`
}

// InferResponse is the POST /v1/infer success body.
type InferResponse struct {
	Model   string      `json:"model"`
	Rows    int         `json:"rows"`
	Outputs [][]float64 `json:"outputs"`
	// Class is the canonical class the request was scheduled as.
	Class string `json:"class,omitempty"`
	// QueueWaitMs is the longest any row of the request sat queued before
	// its batch dispatched; ExecuteMs the longest engine invocation it rode.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	ExecuteMs   float64 `json:"execute_ms,omitempty"`
	// TraceID correlates this response with /debug/traces and slog records
	// across tiers (also echoed as the X-Radix-Trace-Id header); Spans is
	// the per-stage timing breakdown — admission plus the five scheduler
	// stages (queue, assemble, lease, execute, deliver).
	TraceID string     `json:"trace_id,omitempty"`
	Spans   []obs.Span `json:"spans,omitempty"`
	Active  []bool     `json:"active,omitempty"`
	Argmax  []int      `json:"argmax,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx API response. Model is
// set on errors scoped to a resolved model (backpressure, shutdown, engine
// failure) and Class on errors scoped to a scheduling class (per-class
// backpressure, deadline expiry), so clients and the cluster router can
// attribute the failure without reparsing their request.
type ErrorResponse struct {
	Error string `json:"error"`
	Model string `json:"model,omitempty"`
	Class string `json:"class,omitempty"`
}

// RegisterRequest is the POST /v1/models (register) and
// PUT /v1/models/{name} (hot-reload) body. Config is a RadiX-Net
// configuration in the graphio JSON wire format. The policy fields apply
// only to registration (a reload keeps the model's batcher and policy);
// zero policy fields take the server registry's defaults. There is no kernel
// field: every generation is built by infer.FromConfig. There is no share
// field: models share the engine quota without weights. There is no
// workers field: a model runs one batch worker per engine. A body that still
// carries any of them is refused with 400.
type RegisterRequest struct {
	// Name is the model's registry name. Required for POST /v1/models;
	// ignored on PUT, where the path names the model.
	Name string `json:"name,omitempty"`
	// Config is the graphio config JSON ({"systems":[[...]],"shape":[...]}).
	Config json.RawMessage `json:"config"`
	// Engines sizes the warm engine pool, one batch worker per engine. On
	// registration, min 1. A reload keeps the model's count: 0 (or omitted)
	// and the same count are accepted, any other count gets 422.
	Engines int `json:"engines,omitempty"`
	// MaxBatch, MaxLatencyMs, QueueDepth override the batching policy at
	// registration.
	MaxBatch     int     `json:"max_batch,omitempty"`
	MaxLatencyMs float64 `json:"max_latency_ms,omitempty"`
	QueueDepth   int     `json:"queue_depth,omitempty"`
}

// AdminResponse is the success body of DELETE /v1/models/{name}.
type AdminResponse struct {
	Model  string `json:"model"`
	Status string `json:"status"`
}

// Server exposes a Registry over HTTP: POST /v1/infer, GET /v1/models,
// GET /healthz, GET /metrics, plus the model control plane —
// POST /v1/models (register), PUT /v1/models/{name} (atomic hot-reload),
// DELETE /v1/models/{name} (unregister). Construct with NewServer, start
// with Start, stop with Shutdown.
type Server struct {
	reg   *Registry
	http  *http.Server
	start time.Time

	// draining is set at Shutdown entry, before the listener closes, so
	// health probes racing the drain window already see 503 and the
	// cluster tier routes around this backend proactively.
	draining atomic.Bool

	// HTTP-level counters by status class, exported on /metrics.
	status2xx, status4xx, status5xx atomic.Int64

	// Observability surface: recent-request trace ring (GET /debug/traces),
	// slow-request threshold, and the slog destination for slow records.
	traces *obs.TraceRing
	slow   time.Duration
	log    *slog.Logger

	// scrapeMu serializes /metrics renders: the windowed-max gauges
	// rotate their scrape window during the render, so two racing
	// scrapers must take turns or one of them observes a half-rotated
	// (empty) window.
	scrapeMu sync.Mutex

	// slo evaluates the configured objectives against this node's own
	// histogram snapshots; nil when no objectives were configured.
	slo *slo.Engine

	// zone is the failure domain self-reported on /healthz ("" = unzoned).
	zone string
}

// ServerOptions configures a Server's observability surface. The zero
// value is the production default: tracing on (a ring of
// obs.DefaultTraceDepth), pprof off, slow-request logging off.
type ServerOptions struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server mux.
	// Opt-in: profiling endpoints expose stacks and heap contents, so they
	// stay off unless an operator asks.
	Pprof bool
	// SlowRequest logs any /v1/infer request slower than this threshold
	// via slog, with the trace ID and full span breakdown. 0 disables.
	SlowRequest time.Duration
	// Logger receives slow-request records; nil selects slog.Default().
	Logger *slog.Logger
	// SLO lists the burn-rate objectives evaluated on GET /v1/slo and
	// exported as radixserve_slo_* gauges; none disables both.
	SLO []slo.Objective
	// Zone is this backend's failure domain (rack, availability zone),
	// self-reported on GET /healthz so the cluster router's zone-aware
	// placement can spread a model's replicas across domains. Empty opts
	// out: the backend places like an unzoned node.
	Zone string
}

// NewServer wraps the registry in an HTTP server bound to addr (host:port;
// ":0" picks an ephemeral port at Start) with default observability.
func NewServer(reg *Registry, addr string) *Server {
	return NewServerOpts(reg, addr, ServerOptions{})
}

// NewServerOpts is NewServer with an explicit observability configuration.
func NewServerOpts(reg *Registry, addr string, opts ServerOptions) *Server {
	s := &Server{
		reg:    reg,
		start:  time.Now(),
		traces: obs.NewTraceRing(obs.DefaultTraceDepth),
		slow:   opts.SlowRequest,
		log:    opts.Logger,
		slo:    slo.New(opts.SLO),
		zone:   opts.Zone,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models", s.handleRegister)
	mux.HandleFunc("PUT /v1/models/{name}", s.handleReload)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleUnregister)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.Handle("GET /debug/traces", s.traces.Handler())
	if opts.Pprof {
		obs.RegisterPprof(mux)
	}
	s.http = &http.Server{
		Addr:              addr,
		Handler:           s.countStatus(mux),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Traces exposes the server's trace ring (for embedding and tests).
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// Handler returns the server's root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Start listens on the configured address and serves in the background,
// returning the bound address (useful with ":0").
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.http.Addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails fatally before Shutdown; surface it loudly
			// rather than dying silent.
			panic(fmt.Sprintf("serve: http server failed: %v", err))
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the server gracefully: stop accepting connections, wait
// (bounded by ctx) for in-flight requests, then close the registry — new
// submissions fail with ErrClosed while rows already accepted drain through
// the engines.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	s.reg.Close()
	return err
}

// statusRecorder captures the response status for the server's counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher to the underlying writer when it supports
// flushing, so streaming/long-poll handlers behind the status middleware
// keep their flushes instead of silently buffering. A no-op otherwise —
// matching net/http's own contract that Flush may do nothing.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, the
// modern way for handlers to reach Flush/SetWriteDeadline through wrappers.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) countStatus(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		switch {
		case rec.code < 400:
			s.status2xx.Add(1)
		case rec.code < 500:
			s.status4xx.Add(1)
		default:
			s.status5xx.Add(1)
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeModelError(w http.ResponseWriter, code int, model string, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...), Model: model})
}

// servedTrace is a request's trace with room for its spans, admission and
// the five scheduler stages: one allocation, which the trace ring keeps.
type servedTrace struct {
	obs.Trace
	spanBuf [6]obs.Span
}

// finish files a request's trace with its outcome.
func (s *Server) finish(tr *servedTrace, status int, model, class string, rows int, errStr string, spans []obs.Span) {
	tr.Status, tr.Model, tr.Class, tr.Rows, tr.Error, tr.Spans = status, model, class, rows, errStr, spans
	s.traces.Finish(&tr.Trace, s.slow, s.log)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	traceID := obs.RequestTraceID(r.Header)
	w.Header().Set(obs.HeaderTraceID, traceID)
	tr := &servedTrace{Trace: obs.Trace{ID: traceID, Start: t0}}
	// The request's rows and outputs live in a pooled exchange. Rows a
	// departed client left queued or executing still use it after Do
	// returns, so an exchange is pooled again only while the request's
	// context is live — Do returns early on nothing else.
	x := getExchange()
	defer func() {
		if r.Context().Err() == nil {
			putExchange(x)
		}
	}()
	var err error
	x.body, err = ReadBody(x.body, http.MaxBytesReader(w, r.Body, MaxRequestBody), r.ContentLength)
	if err == nil {
		err = x.decode()
	}
	req := &x.req
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		s.finish(tr, http.StatusBadRequest, "", "", 0, err.Error(), nil)
		return
	}
	m, ok := s.reg.Model(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", req.Model)
		s.finish(tr, http.StatusNotFound, req.Model, "", 0, "unknown model", nil)
		return
	}
	if len(req.Inputs) == 0 {
		writeError(w, http.StatusBadRequest, "empty inputs")
		s.finish(tr, http.StatusBadRequest, req.Model, "", 0, "empty inputs", nil)
		return
	}
	// Router-forwarded QoS metadata wins over the body: the class header
	// carries the canonical class the router peeked, the deadline header
	// the REMAINING budget after upstream queueing and failover attempts.
	class := req.Class
	if h := r.Header.Get(HeaderClass); h != "" {
		class = h
	}
	class, err = m.ResolveClass(class)
	if err != nil {
		// Unknown class is a deterministic client error: refuse before any
		// row is queued, like an unparseable config on the admin plane.
		writeJSON(w, http.StatusUnprocessableEntity,
			ErrorResponse{Error: err.Error(), Model: m.Name(), Class: req.Class})
		s.finish(tr, http.StatusUnprocessableEntity, m.Name(), req.Class, len(req.Inputs), err.Error(), nil)
		return
	}
	deadlineMs := req.DeadlineMs
	if h := r.Header.Get(HeaderDeadlineMs); h != "" {
		if v, perr := strconv.ParseFloat(h, 64); perr == nil {
			deadlineMs = v
		}
	}
	// Everything from arrival to submission — decode, model/class resolve,
	// deadline math — is the admission span; Do chains the scheduler spans
	// on after it, in the trace's own storage.
	tr.spanBuf[0] = obs.MkSpan("admission", 0, time.Since(t0))
	qreq := &Request{Rows: req.Inputs, Class: class, Deadline: DeadlineFromMs(deadlineMs), TraceID: traceID,
		out: x.output(len(req.Inputs), m.OutputWidth()), spans: tr.spanBuf[:1]}
	qresp, err := m.Do(r.Context(), qreq)
	if err != nil {
		code := errStatus(err)
		switch code {
		case http.StatusTooManyRequests:
			// The canonical backpressure response: bounded per-class queue,
			// explicit shed, client retries with backoff. The model and
			// class in the body let a router back off the one saturated
			// queue rather than the whole backend; Retry-After is derived
			// from the queue's measured wait so the router's backoff path
			// engages with a real number.
			w.Header().Set("Retry-After", strconv.Itoa(m.RetryAfterSeconds(class)))
			writeJSON(w, code,
				ErrorResponse{Error: fmt.Sprintf("model %q: %v", m.Name(), err), Model: m.Name(), Class: class})
		case http.StatusGatewayTimeout, http.StatusRequestEntityTooLarge:
			// 504: the request's own deadline expired while its rows were
			// queued; they were shed, not executed, and the budget ran out
			// server-side. 413: the request has more rows than its class
			// queue holds and could never be admitted whole; retrying it
			// cannot help, splitting it can.
			writeJSON(w, code, ErrorResponse{Error: err.Error(), Model: m.Name(), Class: class})
		default:
			writeModelError(w, code, m.Name(), "%v", err)
		}
		s.finish(tr, code, m.Name(), class, len(req.Inputs), err.Error(), tr.spanBuf[:1])
		return
	}
	spans := qresp.Spans
	outs := qresp.Outputs
	resp := InferResponse{
		Model:       m.Name(),
		Rows:        len(outs),
		Outputs:     outs,
		Class:       qresp.Class,
		QueueWaitMs: float64(qresp.QueueWait) / float64(time.Millisecond),
		ExecuteMs:   float64(qresp.Execute) / float64(time.Millisecond),
		TraceID:     qresp.TraceID,
		Spans:       spans,
	}
	if req.Categories {
		resp.Active = make([]bool, len(outs))
		resp.Argmax = make([]int, len(outs))
		for i, row := range outs {
			best := 0
			for c, v := range row {
				if v > 0 {
					resp.Active[i] = true
				}
				if v > row[best] {
					best = c
				}
			}
			resp.Argmax[i] = best
		}
	}
	// The reply is written over the request body, which is decoded by now.
	x.body, err = appendResponse(x.body[:0], &resp)
	if err != nil {
		writeModelError(w, http.StatusInternalServerError, m.Name(), "%v", err)
		s.finish(tr, http.StatusInternalServerError, m.Name(), qresp.Class, len(outs), err.Error(), spans)
		return
	}
	// The compact span breakdown rides the response headers so an
	// upstream router can graft this backend's queue/execute spans into
	// its own trace (stitched distributed tracing without a collector).
	// It is built in the exchange's buffer; the header keeps a copy.
	if x.spans = obs.AppendSpans(x.spans[:0], spans); len(x.spans) > 0 {
		w.Header().Set(obs.HeaderSpans, string(x.spans))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(x.body) // a failed write is a departed client: no one is left to tell
	s.finish(tr, http.StatusOK, m.Name(), qresp.Class, len(outs), "", spans)
}

// errStatus maps a Model.Do error to the HTTP status handleInfer answers
// it with: the one table, so the trace ring records the status the client
// received. A departed client's context error is a 503; the status is
// moot, but the status counters stay honest.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrRequestTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]ModelInfo{"models": s.reg.List()})
}

// decodeRegisterRequest reads a register or reload body and decodes it with
// DecodeRegisterRequest, answering a refusal itself.
func decodeRegisterRequest(w http.ResponseWriter, r *http.Request) (RegisterRequest, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return RegisterRequest{}, false
	}
	req, bad := DecodeRegisterRequest(body)
	if bad != nil {
		writeError(w, bad.Status, "%s", bad.Message)
		return RegisterRequest{}, false
	}
	return req, true
}

// DecodeRegisterRequest decodes a register or reload body. Both tiers
// decode admin bodies with it, so the router refuses before any fan-out
// what every backend would: a body that is not exactly one JSON value, or
// carries trailing data after it, is a 400; so is a field this API no
// longer honours (the decoder ignores fields it does not know, so a client
// that still pins a kernel, a share or a worker count must hear that it no
// longer can, not be served without it); a body with no config is a 422.
func DecodeRegisterRequest(body []byte) (RegisterRequest, *StatusError) {
	var req struct {
		RegisterRequest
		Kernel  json.RawMessage `json:"kernel"`
		Share   json.RawMessage `json:"share"`
		Workers json.RawMessage `json:"workers"`
	}
	status, msg := http.StatusBadRequest, ""
	switch err := json.Unmarshal(body, &req); {
	case err != nil:
		msg = "bad request body: " + err.Error()
	case req.Kernel != nil:
		msg = `the "kernel" field was removed: every model runs the same kernels`
	case req.Share != nil:
		msg = `the "share" field was removed: models share the engine quota without weights`
	case req.Workers != nil:
		msg = `the "workers" field was removed: a model runs one batch worker per engine`
	case len(req.Config) == 0:
		status, msg = http.StatusUnprocessableEntity, "missing config"
	default:
		return req.RegisterRequest, nil
	}
	return RegisterRequest{}, &StatusError{Status: status, Message: msg}
}

// adminPolicy maps a request's policy overrides to a Policy; all-zero means
// "use the registry default".
func (req RegisterRequest) adminPolicy() (Policy, bool) {
	pol := Policy{
		MaxBatch:   req.MaxBatch,
		MaxLatency: time.Duration(req.MaxLatencyMs * float64(time.Millisecond)),
		QueueDepth: req.QueueDepth,
	}
	return pol, pol != Policy{}
}

// writeAdminError maps control-plane registry errors to status codes:
// 409 duplicate, 404 unknown, 503 draining, 422 anything the config or
// shape check refused.
func writeAdminError(w http.ResponseWriter, model string, err error) {
	switch {
	case errors.Is(err, ErrAlreadyRegistered):
		writeModelError(w, http.StatusConflict, model, "%v", err)
	case errors.Is(err, ErrNotRegistered):
		writeModelError(w, http.StatusNotFound, model, "%v", err)
	case errors.Is(err, ErrClosed):
		writeModelError(w, http.StatusServiceUnavailable, model, "%v", err)
	default:
		writeModelError(w, http.StatusUnprocessableEntity, model, "%v", err)
	}
}

// handleRegister is POST /v1/models: build the model from graphio config
// JSON and put it in rotation. 201 on success; 409 if the name is taken,
// 422 on an unusable config, 503 while draining.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeRegisterRequest(w, r)
	if !ok {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusUnprocessableEntity, "missing model name")
		return
	}
	cfg, err := graphio.UnmarshalConfig(req.Config)
	if err != nil {
		writeModelError(w, http.StatusUnprocessableEntity, req.Name, "bad config: %v", err)
		return
	}
	pol, override := req.adminPolicy()
	if !override {
		pol = s.reg.pol
	}
	m, err := s.reg.RegisterWithPolicy(req.Name, cfg, req.Engines, pol)
	if err != nil {
		writeAdminError(w, req.Name, err)
		return
	}
	writeJSON(w, http.StatusCreated, m.Info())
}

// handleReload is PUT /v1/models/{name}: atomically hot-swap the model's
// engine pool for one built from the request config. In-flight and queued
// rows are unaffected — they finish on whichever generation their batch
// leases. 200 with the new ModelInfo on success; 404 unknown model, 422 on
// an unusable or shape-changing config or an engine count other than the
// model's, 503 while draining.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, ok := decodeRegisterRequest(w, r)
	if !ok {
		return
	}
	if m, ok := s.reg.Model(name); ok && req.Engines != 0 && req.Engines != m.engines {
		writeModelError(w, http.StatusUnprocessableEntity, name,
			"a reload keeps the engine count: model %q has %d, the reload asks for %d", name, m.engines, req.Engines)
		return
	}
	m, err := s.reg.ReloadJSON(name, req.Config)
	if err != nil {
		writeAdminError(w, name, err)
		return
	}
	writeJSON(w, http.StatusOK, m.Info())
}

// handleUnregister is DELETE /v1/models/{name}: drain the model and remove
// it. 200 on success (the response is written only after the drain, so a
// 200 means the model is fully gone); 404 unknown model, 503 while
// draining for shutdown.
func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Unregister(name); err != nil {
		writeAdminError(w, name, err)
		return
	}
	writeJSON(w, http.StatusOK, AdminResponse{Model: name, Status: "unregistered"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Models:        len(s.reg.List()),
		Zone:          s.zone,
	}
	if s.draining.Load() || s.reg.Closed() {
		// Graceful shutdown in progress: answer probes honestly so the
		// cluster tier routes around this backend before its listener dies,
		// instead of keeping it in rotation until forwards start failing.
		h.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// Server-wide families: HTTP status classes, uptime, and the per-tier
// SLO and Go-runtime families.
var (
	metricHTTPResponses = obs.NewCounter("radixserve_http_responses_total", "HTTP responses by status class.", "class")
	metricUptime        = obs.NewGauge("radixserve_uptime_seconds", "Server uptime.")
	writeSLOMetrics     = slo.Exposition("radixserve")
	writeRuntimeMetrics = obs.RuntimeExposition("radixserve")
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var out obs.Writer
	// One scraper at a time: the maxwindow gauges rotate their window as
	// they render, so concurrent scrapes must serialize or a racing
	// scraper steals the window the other was about to read.
	models := readModels(s.reg.all())
	s.scrapeMu.Lock()
	writeModelMetrics(&out, models)
	s.scrapeMu.Unlock()
	out.Family(metricHTTPResponses)
	out.Int(s.status2xx.Load(), "2xx")
	out.Int(s.status4xx.Load(), "4xx")
	out.Int(s.status5xx.Load(), "5xx")
	out.Family(metricUptime).Float(time.Since(s.start).Seconds())
	if s.slo != nil {
		now := time.Now()
		s.sloRecord(models, now)
		writeSLOMetrics(&out, s.slo.Evaluate(now))
	}
	writeRuntimeMetrics(&out)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(out.Bytes()) // a scraper that hung up is not the server's error
}

// sloRecord feeds the SLO engine one cumulative sample per model (the
// aggregate series, class "") and per model×class, all from the models'
// reads of this node's own lock-free instruments — the same numbers
// /metrics exports.
func (s *Server) sloRecord(models []modelRead, now time.Time) {
	for i := range models {
		m := &models[i]
		n := m.n
		s.slo.Record(m.name, "", slo.Outcome(MetricRequestLatency.Scraped(m.latency),
			count(n.Accepted), count(n.Rejected), count(n.Failed), count(n.Expired)), now)
		for c, h := range m.classLatency {
			cm := m.met.class(c)
			s.slo.Record(m.name, m.qos.name(c), slo.Outcome(MetricClassRequestLatency.Scraped(h),
				count(cm.Accepted.Load()), count(cm.Rejected.Load()), 0, count(cm.Expired.Load())), now)
		}
	}
}

// count reads a counter as the unsigned count the SLO engine takes,
// flooring at zero.
func count(v int64) uint64 { return uint64(max(v, 0)) }

// handleSLO is GET /v1/slo: the burn-rate evaluation of every configured
// objective against this node's own traffic. 404 when no objectives are
// configured (the endpoint is off, not empty).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeError(w, http.StatusNotFound, "no SLO objectives configured")
		return
	}
	now := time.Now()
	s.sloRecord(readModels(s.reg.all()), now)
	writeJSON(w, http.StatusOK, s.slo.ViewOf(now))
}
