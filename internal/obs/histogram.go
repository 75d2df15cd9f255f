// Package obs is the shared observability layer for the radixnet serving
// stack: lock-free log-bucketed latency histograms whose snapshots read
// back in exposition form (ScrapedHist: merged, windowed and the one
// quantile estimate), windowed maxima, per-request traces
// with named span timings retained in a bounded lock-free ring, and the
// /metrics exposition itself: every metric family of both tiers is
// declared once (Family), one Writer renders the text, and one parser
// (ParseScrape) reads it back — for the router to merge backend
// histograms bucket-wise and for selftests to assert tail-latency
// invariants from the exported data.
//
// Everything here is stdlib-only and safe for concurrent use. The hot
// paths (Histogram.Observe, WindowedMax.Observe, TraceRing.Add) are
// wait-free on amd64/arm64: a handful of atomic adds, no locks, no
// allocation (Observe is 0 allocs/op; see BenchmarkHistogramObserve).
package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of power-of-two buckets in a Histogram.
// Bucket i counts observations v with 2^(i-1) < v <= 2^i (bucket 0
// counts v <= 1), so 48 buckets cover 1ns .. ~78 hours when observing
// nanoseconds — every latency this stack can produce.
const NumBuckets = 48

// Exposition window: emitting all 48 buckets per series would bloat
// /metrics with empty lines, so a latency family (NewSeconds) exposes the
// le ladder for buckets minExpoBucket..maxExpoBucket (4.096µs .. ~17.2s
// for nanosecond observations) and folds everything outside into the
// first bucket and +Inf respectively. Counts are never lost — only
// boundary resolution outside the plausible latency range. All latency
// histograms share the exact same ladder, which is what makes router-side
// bucket-wise merging a straight per-le sum.
const (
	minExpoBucket = 12
	maxExpoBucket = 34
)

// Histogram is a fixed-size, power-of-two-bucketed histogram with
// atomic counters. The zero value is ready to use. Observe is lock-free
// and allocation-free; Snapshot returns a consistent-enough copy for
// monitoring (individual counters are read atomically; the set is not a
// single linearization point, which is the standard Prometheus trade).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64

	// exemplars is nil until EnableExemplars; the indirection keeps the
	// non-exemplar Observe path untouched (no per-bucket pointer slots
	// to initialize, no extra cache lines in the common case).
	exemplars atomic.Pointer[exemplarSet]
}

// Exemplar links a histogram bucket to the most recent traced
// observation that landed in it: the trace ID names the request, Value
// is the raw (unscaled) observation. /metrics emits it as an
// OpenMetrics-style "# {trace_id=...}" annotation so a slow bucket
// resolves to its stitched trace via /debug/traces?trace=<id>.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	Value   int64  `json:"value"`
}

type exemplarSet struct {
	slots [NumBuckets]atomic.Pointer[Exemplar]
}

// bucketOf maps an observation to its bucket index: the smallest i with
// v <= 2^i, clamped to the table.
//
//radix:hotpath
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketBound reports bucket i's inclusive upper bound (2^i).
func BucketBound(i int) int64 { return int64(1) << uint(i) }

// Observe records one value. Negative values clamp to zero.
//
//radix:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// EnableExemplars switches on per-bucket exemplar capture. Safe to call
// concurrently and more than once; a no-op after the first call.
func (h *Histogram) EnableExemplars() {
	if h.exemplars.Load() == nil {
		h.exemplars.CompareAndSwap(nil, &exemplarSet{})
	}
}

// ObserveTraced records one value like Observe and, when exemplars are
// enabled and traceID is non-empty, publishes {traceID, v} as the
// containing bucket's exemplar with a single atomic pointer swap
// (last-writer-wins — "the most recent request that landed here").
// With exemplars disabled or an empty traceID it degrades to exactly
// Observe's cost.
//
// allow=alloc: the one &Exemplar per traced observation IS the publication
// mechanism — readers hold the previous immutable value while the swap
// lands. Everything else in here must stay allocation-free.
//
//radix:hotpath allow=alloc
func (h *Histogram) ObserveTraced(v int64, traceID string) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID == "" {
		return
	}
	if ex := h.exemplars.Load(); ex != nil {
		ex.slots[b].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Snapshot copies the current counters into a mergeable value. When
// exemplars are enabled, the per-bucket exemplars ride along.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if ex := h.exemplars.Load(); ex != nil {
		s.Exemplars = make([]Exemplar, NumBuckets)
		for i := range ex.slots {
			if e := ex.slots[i].Load(); e != nil {
				s.Exemplars[i] = *e
			}
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	Sum     int64

	// Exemplars, when non-nil, has NumBuckets entries; an entry with an
	// empty TraceID means that bucket has no exemplar.
	Exemplars []Exemplar
}

// WindowedMax tracks a running maximum over scrape windows: Observe
// folds values in, Rotate (called on scrape) reports the max over the
// last two windows and starts a new one. Keeping one previous window
// means a scrape arriving just after rotation still sees the recent
// peak, while a long-lived fleet stops reporting a years-old worst case,
// as an all-time maximum beside it does.
type WindowedMax struct {
	cur  atomic.Int64
	prev atomic.Int64
}

// Observe folds v into the current window.
//
//radix:hotpath
func (m *WindowedMax) Observe(v int64) {
	for {
		old := m.cur.Load()
		if v <= old || m.cur.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value reports the max over the current and previous windows without
// rotating.
func (m *WindowedMax) Value() int64 {
	return max(m.cur.Load(), m.prev.Load())
}

// Rotate reports the max over the current and previous windows, then
// retires the current window (prev <- cur, cur <- 0). Call on scrape.
func (m *WindowedMax) Rotate() int64 {
	c := m.cur.Swap(0)
	return max(c, m.prev.Swap(c))
}
