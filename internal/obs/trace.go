package obs

import (
	"encoding/json"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// HeaderTraceID carries the request trace ID on the HTTP wire. The
// router (or any edge) generates one when absent; backends reuse an
// incoming ID so one ID follows the request through every tier, and
// both tiers echo it on the response.
const HeaderTraceID = "X-Radix-Trace-Id"

// NewTraceID returns a 32-hex-char random trace ID (128 bits). The string
// is its one allocation: both tiers mint one for every request that
// arrives without an ID.
func NewTraceID() string {
	const digits = "0123456789abcdef"
	var b [32]byte
	for half := 0; half < 32; half += 16 {
		x := rand.Uint64()
		for i := half + 15; i >= half; i-- {
			b[i] = digits[x&15]
			x >>= 4
		}
	}
	return string(b[:])
}

// RequestTraceID returns the trace ID a request travels under: the
// incoming X-Radix-Trace-Id when it is at most 64 bytes of [0-9A-Za-z_-],
// otherwise a freshly minted one (this tier is the edge, or the client
// sent something else). The ID is retained in the trace ring, pinned per
// bucket as an exemplar, echoed in the response and printed on /metrics,
// so an unbounded or free-form client string is never honoured.
func RequestTraceID(h http.Header) string {
	const allowed = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-"
	id := h.Get(HeaderTraceID)
	if id == "" || len(id) > 64 || strings.Trim(id, allowed) != "" { // Trim leaves the first byte not in allowed
		return NewTraceID()
	}
	return id
}

// Span is one named stage of a request's lifecycle. Offsets and
// durations are wall-clock milliseconds relative to the owning trace's
// start, which keeps the wire format human-readable in /debug/traces
// and response bodies.
type Span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"duration_ms"`
}

// MkSpan builds a Span from durations.
func MkSpan(name string, start, dur time.Duration) Span {
	return Span{Name: name, StartMs: ms(start), DurMs: ms(dur)}
}

func ms(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// Trace is one completed (or failed) request as retained in a
// TraceRing and served from /debug/traces.
type Trace struct {
	ID      string    `json:"trace_id"`
	Model   string    `json:"model,omitempty"`
	Class   string    `json:"class,omitempty"`
	Backend string    `json:"backend,omitempty"`
	Start   time.Time `json:"start"`
	TotalMs float64   `json:"total_ms"`
	Status  int       `json:"status"`
	Rows    int       `json:"rows,omitempty"`
	Error   string    `json:"error,omitempty"`
	Spans   []Span    `json:"spans"`

	seq uint64
}

// SpanLine renders the span breakdown as a compact one-line string for
// slow-request log records: "queue=1.2ms execute=3.4ms ...".
func (t *Trace) SpanLine() string {
	var b strings.Builder
	for i, s := range t.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(s.DurMs, 'f', 3, 64))
		b.WriteString("ms")
	}
	return b.String()
}

// TraceRing is a bounded lock-free ring of recent traces. Add is
// wait-free (one atomic fetch-add plus one pointer store); readers
// assemble consistent views from the published pointers. When the ring
// wraps, the oldest trace is overwritten.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// DefaultTraceDepth is the ring size both tiers retain for GET
// /debug/traces.
const DefaultTraceDepth = 256

// NewTraceRing returns a ring retaining the last n > 0 traces.
func NewTraceRing(n int) *TraceRing {
	return &TraceRing{slots: make([]atomic.Pointer[Trace], n)}
}

// Add publishes t into the ring. t must not be mutated afterwards.
//
//radix:hotpath
func (r *TraceRing) Add(t *Trace) {
	seq := r.next.Add(1)
	t.seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(t)
}

// Finish closes a request's trace: it stamps TotalMs from t.Start, adds t
// to the ring and, when slow is positive and the request took at least
// slow, logs a "slow request" record with the trace ID — the same ID on
// both tiers, so one grep correlates them — and the span breakdown. t must
// not be mutated afterwards.
func (r *TraceRing) Finish(t *Trace, slow time.Duration, log *slog.Logger) {
	total := time.Since(t.Start)
	t.TotalMs = ms(total)
	r.Add(t)
	if slow > 0 && total >= slow {
		log.Warn("slow request",
			"trace_id", t.ID, "model", t.Model, "class", t.Class, "backend", t.Backend,
			"status", t.Status, "rows", t.Rows, "total_ms", t.TotalMs, "spans", t.SpanLine())
	}
}

// Len reports the total number of traces ever added.
func (r *TraceRing) Len() uint64 { return r.next.Load() }

func (r *TraceRing) collect() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Recent returns up to n retained traces, newest first.
func (r *TraceRing) Recent(n int) []*Trace {
	out := r.collect()
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Slowest returns up to n retained traces, slowest first.
func (r *TraceRing) Slowest(n int) []*Trace {
	out := r.collect()
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Find returns the retained trace with the given ID (the newest, if
// the ID somehow repeats), or nil. It scans the ring — O(depth), fine
// for a debug endpoint, never for a hot path.
func (r *TraceRing) Find(id string) *Trace {
	if id == "" {
		return nil
	}
	var best *Trace
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil && t.ID == id {
			if best == nil || t.seq > best.seq {
				best = t
			}
		}
	}
	return best
}

// tracesView is the GET /debug/traces response body.
type tracesView struct {
	Total   uint64   `json:"total"`
	Recent  []*Trace `json:"recent"`
	Slowest []*Trace `json:"slowest"`
}

// traceView is the GET /debug/traces?trace=<id> response body.
type traceView struct {
	Total uint64 `json:"total"`
	Trace *Trace `json:"trace"`
}

func filterMinMs(traces []*Trace, minMs float64) []*Trace {
	if minMs <= 0 {
		return traces
	}
	out := traces[:0]
	for _, t := range traces {
		if t.TotalMs >= minMs {
			out = append(out, t)
		}
	}
	return out
}

// Handler serves the ring as JSON. The default view is {"total",
// "recent", "slowest"}: up to n recent traces (query ?n=, default 32,
// clamped to the ring depth) and the 8 slowest retained traces.
// ?min_ms=<f> drops traces faster than the threshold from both views.
// ?trace=<id> instead looks up one trace by ID — the jump target for
// histogram exemplar annotations — answering {"total", "trace"} or
// 404 if the ID is no longer (or never was) retained. Responses are
// always application/json and bounded by the ring depth.
func (r *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		q := req.URL.Query()
		if id := q.Get("trace"); id != "" {
			t := r.Find(id)
			if t == nil {
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{"error": "trace not retained: " + id})
				return
			}
			json.NewEncoder(w).Encode(traceView{Total: r.Len(), Trace: t})
			return
		}
		n := 32
		if v := q.Get("n"); v != "" {
			if p, err := strconv.Atoi(v); err == nil && p > 0 {
				n = p
			}
		}
		if n > len(r.slots) {
			n = len(r.slots)
		}
		var minMs float64
		if v := q.Get("min_ms"); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				minMs = f
			}
		}
		json.NewEncoder(w).Encode(tracesView{
			Total:   r.Len(),
			Recent:  filterMinMs(r.Recent(n), minMs),
			Slowest: filterMinMs(r.Slowest(8), minMs),
		})
	})
}
