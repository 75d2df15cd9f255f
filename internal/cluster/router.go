package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
)

// RouterConfig assembles a Router. Zero fields select defaults.
type RouterConfig struct {
	// Addr is the router's listen address (host:port; ":0" picks an
	// ephemeral port at Start).
	Addr string
	// Backends are the radixserve instances, as "host:port" or
	// "http://host:port". Required.
	Backends []string
	// Replicas is how many ring successors own each model — the failover
	// budget of one request. Default 2, capped at the backend count.
	Replicas int
	// MaxBackoff caps the Retry-After backoff honored on a backend 429.
	// Default 1s.
	MaxBackoff time.Duration
	// ClassRetries caps the backend attempts (first try + failovers) spent
	// on a request per QoS class, so low-priority traffic does not burn the
	// failover budget interactive requests need when the fleet is degraded.
	// A class capped at 1 also skips the router-side 429 Retry-After wait —
	// the backpressure is relayed for the client to pace itself. Classes
	// absent from the map (and unlabeled requests) get the full replica
	// walk. Nil selects DefaultClassRetries.
	ClassRetries map[string]int
	// MetricsClasses adds class names to the router's per-class metrics
	// vocabulary (the built-in serve classes and the ClassRetries keys are
	// always included). Requests naming a class outside the vocabulary are
	// counted under "other" — the label set must stay bounded against
	// client-chosen strings — so a fleet serving custom classes lists them
	// here to get real labels without touching retry policy.
	MetricsClasses []string
	// Pprof mounts net/http/pprof under /debug/pprof/ on the router mux.
	// Opt-in: profiling endpoints stay off production routers by default.
	Pprof bool
	// SlowRequest, when positive, logs a structured slow-request record
	// (trace ID, model, class, per-span breakdown) for every routed
	// request whose end-to-end time meets the threshold. 0 disables.
	SlowRequest time.Duration
	// Logger receives slow-request records. Nil selects slog.Default().
	Logger *slog.Logger
	// SLO lists the burn-rate objectives the router evaluates against the
	// FLEET-merged histogram families (the whole fleet's traffic, not one
	// backend's) on GET /v1/slo and as radixrouter_slo_* gauges; none
	// disables both.
	SLO []slo.Objective
	// Autoscale, when non-nil, runs the replica control loop: per-model
	// load (fleet-merged queue-wait p90, 429 rate, throughput) and SLO burn
	// state drive replica scale-up/down through the register/unregister
	// fan-out, bounded by the policy's hysteresis/cooldown/step/min/max.
	// See internal/autoscale for the policy contract. Autoscaling also
	// spreads load over a model's replicas: each request's healthy-owner
	// walk starts at its model's rotating offset (the failover budget is
	// unchanged), because scaling out a hot model only flattens its tail
	// if the replicas share the load. Without it the first healthy owner
	// serves everything and its successors are failover spares.
	Autoscale *autoscale.Policy
	// Set tunes health probing (interval, timeout, ejection threshold) and
	// seeds backend zones.
	Set SetConfig
}

// Router is the fleet's HTTP front end: it exposes the single-node
// radixserve API (POST /v1/infer, GET /v1/models, /healthz, /metrics) and
// forwards each inference request to the owning healthy backend with
// bounded retry-on-next-replica failover. The model control plane fans out
// fleet-wide: POST /v1/models registers a model on its ring-intended
// replicas, PUT /v1/models/{name} hot-reloads it on every backend that
// reports hosting it, DELETE /v1/models/{name} unregisters it likewise —
// so a fleet is (re)shardable without restarting backends. Construct with
// NewRouter, start with Start, stop with Shutdown.
type Router struct {
	set          *BackendSet
	replicas     int
	maxBackoff   time.Duration
	classRetries map[string]int
	knownClasses map[string]bool
	http         *http.Server
	start        time.Time
	met          routerMetrics
	traces       *obs.TraceRing
	slow         time.Duration
	log          *slog.Logger
	slo          *slo.Engine // nil = no objectives configured
	poolBodies   bool        // the backend transport is net/http's (poolsBodies)

	// models holds the record of every model the admin verbs or the
	// autoscale loop have touched.
	scaleMu sync.RWMutex
	models  map[string]*modelState

	scaler *autoscaler // nil = autoscaling disabled, and no load spreading
}

// modelState is a model's record (package doc, "Model state"). Only the
// admin verbs, ScaleTo and the autoscale loop make or write one, so names
// in /v1/infer cannot grow Router.models. Guarded by scaleMu.
type modelState struct {
	replicas int // override of the configured default (0 = none)
	// reg is the register request some backend last applied, which a
	// scale-out registers on new owners (nil = not registered through this
	// router). Replaced, never written in place.
	reg  *serve.RegisterRequest
	shed string        // the QoS class refused at the router ("" = none)
	rr   atomic.Uint64 // rotation cursor, turned by routing under the read lock
}

// DefaultClassRetries is the per-class backend-attempt budget used when
// RouterConfig.ClassRetries is nil: background requests get one shot (no
// failover, no 429 wait), batch requests one failover, and everything else
// the full replica walk.
func DefaultClassRetries() map[string]int {
	return map[string]int{"background": 1, "batch": 2}
}

// NewRouter validates the config, builds the backend set and ring, and
// wires the HTTP front end. Probing starts with the router (Start).
func NewRouter(cfg RouterConfig) (*Router, error) {
	set, err := NewBackendSet(cfg.Backends, cfg.Set)
	if err != nil {
		return nil, err
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	if n := len(set.Backends()); replicas > n {
		replicas = n
	}
	maxBackoff := cfg.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = time.Second
	}
	classRetries := cfg.ClassRetries
	if classRetries == nil {
		classRetries = DefaultClassRetries()
	}
	// The per-class metrics vocabulary: the serve tier's built-ins, the
	// retry-policy classes, and any explicitly configured extras. Client-
	// supplied class strings outside this set are bucketed as "other" —
	// the label set (and routerMetrics.classes map) must not grow with
	// attacker-chosen request bodies.
	knownClasses := map[string]bool{
		serve.ClassInteractive: true, serve.ClassBatch: true, serve.ClassBackground: true,
	}
	for name := range classRetries {
		knownClasses[name] = true
	}
	for _, name := range cfg.MetricsClasses {
		knownClasses[name] = true
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	rt := &Router{
		set:          set,
		replicas:     replicas,
		maxBackoff:   maxBackoff,
		classRetries: classRetries,
		knownClasses: knownClasses,
		start:        time.Now(),
		traces:       obs.NewTraceRing(obs.DefaultTraceDepth),
		slow:         cfg.SlowRequest,
		log:          logger,
		slo:          slo.New(cfg.SLO),
		poolBodies:   poolsBodies(set.cfg.Client),
		models:       make(map[string]*modelState),
	}
	if cfg.Autoscale != nil {
		scaler, err := newAutoscaler(rt, *cfg.Autoscale)
		if err != nil {
			return nil, err
		}
		rt.scaler = scaler
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", rt.handleInfer)
	mux.HandleFunc("GET /v1/models", rt.handleModels)
	mux.HandleFunc("POST /v1/models", rt.handleAdminRegister)
	mux.HandleFunc("PUT /v1/models/{name}", rt.handleAdminReload)
	mux.HandleFunc("DELETE /v1/models/{name}", rt.handleAdminUnregister)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v1/slo", rt.handleSLO)
	mux.HandleFunc("GET /v1/autoscale", rt.handleAutoscale)
	mux.Handle("GET /debug/traces", rt.traces.Handler())
	if cfg.Pprof {
		obs.RegisterPprof(mux)
	}
	rt.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return rt, nil
}

// Set returns the router's backend set (for status inspection).
func (rt *Router) Set() *BackendSet { return rt.set }

// Metrics snapshots the router's counters.
func (rt *Router) Metrics() RouterMetricsSnapshot { return rt.met.snapshot() }

// Traces returns the router's bounded ring of recent request traces
// (the data behind GET /debug/traces).
func (rt *Router) Traces() *obs.TraceRing { return rt.traces }

// Replicas returns the default per-model replication factor (models the
// autoscaler has touched carry their own count — see ReplicasFor).
func (rt *Router) Replicas() int { return rt.replicas }

// ReplicasFor returns a model's effective replica count: its record's
// override when there is one, the configured default otherwise, capped at
// the fleet size.
func (rt *Router) ReplicasFor(model string) int {
	rt.scaleMu.RLock()
	defer rt.scaleMu.RUnlock()
	return rt.replicasOf(rt.models[model])
}

// replicasOf is ReplicasFor on a record (nil: none). The caller holds
// scaleMu.
func (rt *Router) replicasOf(st *modelState) int {
	if st == nil || st.replicas <= 0 {
		return rt.replicas
	}
	return min(st.replicas, len(rt.set.backends))
}

// route is handleInfer's one lookup of a model's record: the class shed
// for it, its replica count and the next turn of its rotation (0 without a
// record). On the routing hot path for every inference request.
//
//radix:hotpath
func (rt *Router) route(model string) (shed string, replicas int, turn uint64) {
	rt.scaleMu.RLock()
	st := rt.models[model]
	replicas = rt.replicasOf(st)
	if st != nil {
		shed, turn = st.shed, st.rr.Add(1)-1
	}
	rt.scaleMu.RUnlock()
	return shed, replicas, turn
}

// withRecord runs fn on a model's record under scaleMu, making the record
// if there is none. Only the admin verbs, ScaleTo and the autoscale loop
// call it.
func (rt *Router) withRecord(model string, fn func(st *modelState)) {
	rt.scaleMu.Lock()
	defer rt.scaleMu.Unlock()
	st := rt.models[model]
	if st == nil {
		st = &modelState{}
		rt.models[model] = st
	}
	fn(st)
}

// Placement returns the ring's intended owners for a model, in failover
// order, health ignored.
func (rt *Router) Placement(model string) []string {
	return rt.set.Placement(model, rt.ReplicasFor(model))
}

// Handler returns the router's root handler (for tests and embedding).
// Health probing must be started separately (Set().Start()) when the
// router is driven through its handler rather than Start.
func (rt *Router) Handler() http.Handler { return rt.http.Handler }

// Start begins health probing, listens on the configured address, and
// serves in the background, returning the bound address.
func (rt *Router) Start() (string, error) {
	ln, err := net.Listen("tcp", rt.http.Addr)
	if err != nil {
		return "", err
	}
	rt.set.Start()
	if rt.scaler != nil {
		rt.scaler.Start()
	}
	go func() {
		if err := rt.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(fmt.Sprintf("cluster: router http server failed: %v", err))
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops the front end gracefully (bounded by ctx) and halts
// health probing. The backends are not touched — they are independent
// processes with their own lifecycles — but the router's pooled
// connections to them are released: the transport parks speculatively
// dialed, never-used connections, and a backend's own graceful shutdown
// waits ~5s before reaping such connections (net/http treats young
// StateNew conns as possibly-about-to-send).
func (rt *Router) Shutdown(ctx context.Context) error {
	err := rt.http.Shutdown(ctx)
	if rt.scaler != nil {
		rt.scaler.Stop()
	}
	rt.set.Stop()
	rt.set.cfg.Client.CloseIdleConnections()
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, model, format string, args ...any) {
	writeJSON(w, code, serve.ErrorResponse{Error: fmt.Sprintf(format, args...), Model: model})
}

// inferForward is one routed inference request's QoS and tracing state:
// the absolute deadline derived from the body's deadline_ms at arrival
// (each forward attempt carries only the REMAINING budget, so failovers
// and backoffs shrink it instead of resetting it), whether the class's
// attempt budget permits waiting out a backend's 429 Retry-After, and the
// trace accumulated as the request moves through the owner walk: the
// peeked model and class (the class is forwarded verbatim), the span chain
// (route, attempt:<backend>, backoff:<backend>, and the answering
// backend's own spans stitched under its attempt), the final status the
// client was answered with (0: none, the client is gone), the backend
// whose reply was relayed and the error text. The trace ring keeps the
// trace and with it the record, so a request's trace and the room for its
// usual eight spans are one allocation.
type inferForward struct {
	obs.Trace
	deadline     time.Time // zero = none
	allowBackoff bool

	spanBuf [8]obs.Span // route, attempt, and a backend's six stages
}

// span appends a named span covering start..now to the request's trace.
func (f *inferForward) span(name string, start time.Time) {
	if f.Spans == nil {
		f.Spans = f.spanBuf[:0] // a trace refused before routing keeps no spans
	}
	f.Spans = append(f.Spans, obs.MkSpan(name, start.Sub(f.Start), time.Since(start)))
}

// remainingMs reports the milliseconds left in the request's budget, or 0
// when it has no deadline. ok=false means the budget is exhausted.
func (f *inferForward) remainingMs() (ms float64, ok bool) {
	if f.deadline.IsZero() {
		return 0, true
	}
	rem := time.Until(f.deadline)
	if rem <= 0 {
		return 0, false
	}
	return float64(rem) / float64(time.Millisecond), true
}

// classAttempts returns the backend-attempt budget for a class: the
// configured cap, bounded to [1, owners]; unlisted classes walk every
// owner.
func (rt *Router) classAttempts(class string, owners int) int {
	if n, ok := rt.classRetries[class]; ok && n > 0 && n < owners {
		return n
	}
	return owners
}

// classLabel maps a request's class string onto the router's bounded
// metrics vocabulary: "" → "default", unknown values → "other".
func (rt *Router) classLabel(class string) string {
	switch {
	case class == "":
		return "default"
	case rt.knownClasses[class]:
		return class
	default:
		return "other"
	}
}

// classAllowsBackoff reports whether a class may wait out a backend's 429
// Retry-After (a same-backend retry, so it is judged by the configured cap
// alone, not by how many owners happen to be alive): only classes capped
// at a single attempt skip it.
func (rt *Router) classAllowsBackoff(class string) bool {
	n, ok := rt.classRetries[class]
	return !ok || n != 1
}

// handleInfer routes one inference request: peek at the model name and QoS
// class, walk its healthy owners in ring order (bounded by the class's
// attempt budget), and forward until a backend answers. A transport error,
// 5xx, or 404 (placement drift) moves on to the next replica; a 429 is
// retried once on the same backend after honoring its Retry-After — unless
// the class's budget is 1, in which case the 429 is relayed and the client
// owns the pacing. Class and remaining deadline budget travel to the
// backend as headers; a request whose budget expires router-side is
// answered 504 without burning a forward. 4xx responses pass through —
// they are deterministic client errors every replica would repeat.
//
// Every request is traced: the incoming X-Radix-Trace-Id (or a fresh ID)
// is echoed on the response, forwarded to each backend attempt, and the
// router-side span breakdown (route, attempt:<backend>, backoff:<backend>)
// is retained for GET /debug/traces and the slow-request log.
func (rt *Router) handleInfer(w http.ResponseWriter, r *http.Request) {
	rt.met.requests.Add(1)
	traceID := obs.RequestTraceID(r.Header)
	w.Header().Set(obs.HeaderTraceID, traceID)
	fwd := &inferForward{Trace: obs.Trace{ID: traceID, Start: time.Now()}}
	defer rt.recordTrace(fwd)
	body, ctx := rt.forwardBody(r.Context())
	defer body.release()
	var err error
	body.b, err = serve.ReadBody(body.b, http.MaxBytesReader(w, r.Body, serve.MaxRequestBody), r.ContentLength)
	if err != nil {
		rt.routeError(w, fwd, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	peek, err := serve.PeekInferRequest(body.b)
	if err != nil {
		rt.routeError(w, fwd, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if peek.Model == "" {
		rt.routeError(w, fwd, http.StatusBadRequest, "missing model name")
		return
	}
	fwd.Model, fwd.Class = peek.Model, peek.Class
	rt.met.classRequest(rt.classLabel(peek.Class))
	shed, replicas, turn := rt.route(peek.Model)
	if shed != "" && shed == peek.Class {
		// Last-resort SLO actuation: the autoscaler is shedding this class
		// at the router so the protected classes' objective can recover.
		// Same contract as backend backpressure — 429 plus Retry-After, the
		// client owns the pacing.
		rt.met.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		rt.routeError(w, fwd, http.StatusTooManyRequests,
			"class %q shed for model %q (SLO protection)", peek.Class, peek.Model)
		return
	}
	owners := rt.set.Owners(peek.Model, replicas)
	if len(owners) == 0 {
		rt.met.unroutable.Add(1)
		rt.routeError(w, fwd, http.StatusServiceUnavailable, "no healthy backend for model %q", peek.Model)
		return
	}
	if k := int(turn % uint64(len(owners))); rt.scaler != nil && k > 0 {
		// Replica load-spreading: start the owner walk at the model's
		// rotating offset so replicas share its load; the full walk is
		// preserved, so the failover budget is unchanged.
		owners = append(owners[k:len(owners):len(owners)], owners[:k]...)
	}
	attempts := rt.classAttempts(peek.Class, len(owners))
	if attempts < len(owners) {
		owners = owners[:attempts]
	}
	fwd.deadline = serve.DeadlineFromMs(peek.DeadlineMs) // overflow-clamped
	fwd.allowBackoff = rt.classAllowsBackoff(peek.Class)
	fwd.span("route", fwd.Start) // body peek + owner selection
	notFound := 0
	for i, b := range owners {
		if i > 0 {
			rt.met.failovers.Add(1)
		}
		switch rt.tryBackend(ctx, w, r, b, body.b, fwd) {
		case forwardDone:
			return
		case forwardNotFound:
			notFound++
		case forwardFailed:
		}
		if r.Context().Err() != nil {
			// The client is gone; stop burning replicas on its behalf.
			return
		}
	}
	if notFound == len(owners) && rt.consultedIntendedOwners(peek.Model, replicas, owners) {
		// The model's intended ring owners are all alive and answered "no
		// such model": that is a deterministic client error, not a fleet
		// failure — relaying 503 would invite pointless retries. When the
		// intended owners are ejected and the 404s came from healthy ring
		// successors standing in for them, the model may merely be
		// unreachable, so the 503 below (retryable) is the honest answer.
		rt.routeError(w, fwd, http.StatusNotFound,
			"unknown model %q (not hosted by any of its %d replicas)", peek.Model, len(owners))
		return
	}
	rt.met.unroutable.Add(1)
	rt.routeError(w, fwd, http.StatusServiceUnavailable,
		"all %d replicas of model %q failed", len(owners), peek.Model)
}

// routeError answers a router-originated error, recording the status and
// message on the request's trace.
func (rt *Router) routeError(w http.ResponseWriter, fwd *inferForward, code int, format string, args ...any) {
	fwd.Status = code
	fwd.Error = fmt.Sprintf(format, args...)
	writeJSON(w, code, serve.ErrorResponse{Error: fwd.Error, Model: fwd.Model, Class: fwd.Class})
}

// recordTrace closes the request's trace: into the ring and, past the
// slow-request threshold, the log (obs.TraceRing.Finish).
func (rt *Router) recordTrace(fwd *inferForward) {
	rt.traces.Finish(&fwd.Trace, rt.slow, rt.log)
}

// consultedIntendedOwners reports whether the consulted (healthy) owners
// include every backend the ring intends to host the model — i.e. whether
// a unanimous "unknown model" verdict came from the model's real owners
// rather than from substitutes walking past ejected ones.
func (rt *Router) consultedIntendedOwners(model string, replicas int, consulted []*Backend) bool {
	ids := make(map[string]bool, len(consulted))
	for _, b := range consulted {
		ids[b.id] = true
	}
	for _, id := range rt.set.Placement(model, replicas) {
		if !ids[id] {
			return false
		}
	}
	return true
}

// forwardOutcome is one backend's verdict on a forwarded request.
type forwardOutcome int

const (
	forwardDone     forwardOutcome = iota // response written to the client
	forwardFailed                         // transport error or 5xx: try the next replica
	forwardNotFound                       // backend alive but not hosting the model
)

// tryBackend forwards the request to one backend and relays the response.
// forwardDone means a response was written to the client; anything else
// tells the caller whether the replica failed or simply doesn't host the
// model.
func (rt *Router) tryBackend(ctx context.Context, w http.ResponseWriter, r *http.Request, b *Backend, body []byte, fwd *inferForward) forwardOutcome {
	for attempt := 0; ; attempt++ {
		remainingMs, ok := fwd.remainingMs()
		if !ok {
			// The request's budget died router-side (earlier slow attempts,
			// backoffs): answer like a backend shed would, without burning a
			// forward — and critically without charging the backend a
			// failure it did not cause.
			return rt.writeDeadline(w, fwd, "before backend "+b.id+" was tried")
		}
		// The buffered body is reposted as it came; class and trace ID
		// travel verbatim beside it, the deadline as the budget REMAINING
		// at this attempt — the backend sheds queued rows against the real
		// end-to-end deadline, not a fresh copy of the original budget.
		attemptStart := time.Now()
		resp, err := b.client.Infer(ctx, body, fwd.ID, fwd.Class, remainingMs)
		fwd.span(b.attemptSpan, attemptStart)
		if err != nil {
			if r.Context().Err() != nil {
				// The *client* hung up mid-forward: the transport error is
				// context cancellation propagating, not a backend fault.
				// Charging it would let a burst of impatient clients eject
				// every healthy backend.
				return forwardDone // nothing left to write to a gone client
			}
			b.failed.Add(1)
			rt.set.noteFailure(b, err)
			return forwardFailed
		}
		// The per-backend latency histogram only counts answered attempts —
		// transport errors return in microseconds and would drown the
		// signal the tail quantiles exist to surface.
		b.attempt.Observe(time.Since(attemptStart).Nanoseconds())
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && attempt == 0 && fwd.allowBackoff:
			// Backpressure from a healthy backend: honor its Retry-After
			// once, then retry the same owner — its queue drains in
			// milliseconds under the serve policy defaults. Single-attempt
			// classes (background by default) skip this wait entirely: their
			// 429 is relayed below and the client owns the pacing, so a
			// background flood never parks router goroutines in backoffs
			// that interactive traffic is paying for.
			drain(resp)
			rt.set.noteForwardSuccess(b)
			rt.met.backoffs.Add(1)
			wait := retryAfter(resp.Header.Get("Retry-After"), rt.maxBackoff)
			if !fwd.deadline.IsZero() {
				if rem := time.Until(fwd.deadline); rem <= wait {
					// The backoff would outlive the request's budget; tell
					// the client the deadline lost instead of sleeping past
					// it.
					return rt.writeDeadline(w, fwd, "during backpressure backoff on backend "+b.id)
				}
			}
			backoffStart := time.Now()
			clientGone := false
			select {
			case <-r.Context().Done():
				clientGone = true
			case <-time.After(wait):
			}
			fwd.span(b.backoffSpan, backoffStart)
			if clientGone {
				return forwardDone // client gone; nothing left to write
			}
			continue
		case resp.StatusCode == http.StatusNotFound:
			// The backend is alive but does not host the model (placement
			// drift during fleet changes): not a health event, but the next
			// replica may still answer.
			drain(resp)
			rt.set.noteForwardSuccess(b)
			return forwardNotFound
		case resp.StatusCode >= 500:
			b.failed.Add(1)
			rt.set.noteFailure(b, fmt.Errorf("cluster: backend %s: status %d", b.id, resp.StatusCode))
			drain(resp)
			return forwardFailed
		default:
			// 2xx, passthrough 4xx, or a second 429 (the client owns the
			// backoff from here; Retry-After is relayed).
			rt.set.noteForwardSuccess(b)
			b.forwarded.Add(1)
			fwd.Status = resp.StatusCode
			fwd.Backend = b.id
			// Stitch: the backend's span breakdown arrives in the response
			// header with offsets relative to ITS arrival time; rebasing by
			// the winning attempt's start grafts admission→queue→execute
			// under attempt:<id> on the router's own time base, so one
			// /debug/traces entry tells the whole cross-tier story. A
			// malformed header is dropped whole, never trusted.
			if enc := resp.Header.Get(obs.HeaderSpans); enc != "" {
				base := float64(attemptStart.Sub(fwd.Start).Nanoseconds()) / 1e6
				fwd.Spans, _ = obs.AppendRebasedSpans(fwd.Spans, enc, base)
			}
			relay(w, resp, b.id)
			return forwardDone
		}
	}
}

// writeDeadline answers a router-side deadline expiry: 504 with model and
// class attribution, counted on the deadlines series. Always forwardDone —
// a response has been written.
func (rt *Router) writeDeadline(w http.ResponseWriter, fwd *inferForward, where string) forwardOutcome {
	rt.met.deadlines.Add(1)
	fwd.Status = http.StatusGatewayTimeout
	fwd.Error = "deadline exceeded " + where
	writeJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{
		Error: fwd.Error,
		Model: fwd.Model,
		Class: fwd.Class,
	})
	return forwardDone
}

// retryAfter parses a Retry-After header (delta-seconds or HTTP-date form,
// per RFC 9110), bounded by limit; unparsable or absent values back off
// 100ms. Delta-seconds are clamped BEFORE the seconds→Duration multiply:
// a huge value like 9999999999999 would overflow time.Duration to negative,
// dodge the `d > limit` cap, and turn the backoff into an immediate hot
// retry.
func retryAfter(header string, limit time.Duration) time.Duration {
	d := 100 * time.Millisecond
	if secs, err := strconv.ParseInt(strings.TrimSpace(header), 10, 64); err == nil {
		switch {
		case secs < 0:
			// Malformed; keep the default.
		case secs > int64(limit/time.Second):
			return limit
		default:
			d = time.Duration(secs) * time.Second
		}
	} else if t, err := http.ParseTime(header); err == nil {
		d = time.Until(t)
		if d < 0 {
			d = 0 // a date already past means "retry now"
		}
	}
	if d > limit {
		d = limit
	}
	return d
}

// drain discards a response we will not relay, keeping its keep-alive
// connection reusable.
func drain(resp *http.Response) {
	_ = serve.DecodeReply(resp, nil) // best effort: the reply is discarded either way
}

// relay copies a backend response to the client, stamping the answering
// backend for observability (and for the selftest's routing assertions).
func relay(w http.ResponseWriter, resp *http.Response, backendID string) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Radix-Backend", backendID)
	w.WriteHeader(resp.StatusCode)
	copyReply(w, resp.Body)
}
