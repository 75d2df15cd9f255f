package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
)

// Metrics counts one model's serving activity. All fields are atomic and
// updated lock-free on the hot path; read them with Load (or through
// Snapshot) at any time. The classes slice (one entry per registry class,
// in qosSet order) is sized at registration and never resized, so per-class
// counters are lock-free too.
type Metrics struct {
	Accepted    atomic.Int64 // rows admitted to a class queue
	Rejected    atomic.Int64 // rows refused with ErrQueueFull (backpressure)
	Completed   atomic.Int64 // rows inferred and delivered
	Failed      atomic.Int64 // rows failed (engine error or shutdown)
	Expired     atomic.Int64 // rows shed at dequeue for a passed deadline
	Batches     atomic.Int64 // engine invocations
	BatchedRows atomic.Int64 // rows across engine invocations
	ExecNs      atomic.Int64 // total engine-busy ns over invocations
	LatencyNs   atomic.Int64 // total enqueue→delivery ns over completed rows
	MaxLatency  atomic.Int64 // worst single-row enqueue→delivery ns (all-time)
	Reloads     atomic.Int64 // engine-pool hot swaps (Registry.Reload)

	// LatencyHist buckets every completed row's enqueue→delivery latency
	// (ns); ExecHist buckets engine invocation time per batch. Both are
	// lock-free log2 histograms exported as Prometheus histogram families,
	// the distribution view behind the sums/maxima above. BatchHist
	// buckets the rows-per-engine-invocation distribution (unit: rows),
	// the shape behind the MeanBatch point value.
	LatencyHist obs.Histogram
	ExecHist    obs.Histogram
	BatchHist   obs.Histogram
	// WinLatency is the scrape-windowed worst latency: unlike MaxLatency
	// it rotates on scrape, so long-lived fleets stop reporting an
	// all-time worst forever.
	WinLatency obs.WindowedMax

	classes []ClassMetrics
}

// ClassMetrics counts one priority class's activity within a model.
type ClassMetrics struct {
	Accepted    atomic.Int64 // rows admitted to this class's queue
	Rejected    atomic.Int64 // rows refused: this class's queue was full
	Completed   atomic.Int64 // rows inferred and delivered
	Expired     atomic.Int64 // rows shed at dequeue for a passed deadline
	QueueWaitNs atomic.Int64 // total enqueue→dispatch ns over completed rows
	MaxWaitNs   atomic.Int64 // worst single-row enqueue→dispatch ns (all-time)

	// WaitHist buckets queue waits (ns) for quantile extraction — the
	// distribution the 25ms interactive p99 invariant and the Retry-After
	// hint are read from. WinWait is the scrape-windowed worst wait.
	// LatencyHist buckets the class's end-to-end enqueue→delivery latency
	// (ns) — the per-model×class distribution latency SLOs evaluate.
	WaitHist    obs.Histogram
	WinWait     obs.WindowedMax
	LatencyHist obs.Histogram
}

// observeWait records one dispatched row's enqueue→dispatch queue wait,
// stamping the wait bucket's exemplar with the row's trace ID.
func (c *ClassMetrics) observeWait(ns int64, traceID string) {
	c.QueueWaitNs.Add(ns)
	c.WaitHist.ObserveTraced(ns, traceID)
	c.WinWait.Observe(ns)
	for {
		old := c.MaxWaitNs.Load()
		if ns <= old || c.MaxWaitNs.CompareAndSwap(old, ns) {
			return
		}
	}
}

// class returns the per-class counters for a class id.
func (m *Metrics) class(i int) *ClassMetrics { return &m.classes[i] }

// MetricsSnapshot is a consistent-enough point-in-time copy of Metrics for
// reporting (fields are loaded individually; exactness across fields is not
// guaranteed under concurrent load).
type MetricsSnapshot struct {
	Accepted, Rejected, Completed, Failed int64
	Expired                               int64
	Batches, BatchedRows, Reloads         int64
	MeanBatch                             float64
	MeanLatency, MaxLatency               time.Duration
	// LatencyP50/P90/P99 are histogram-derived end-to-end latency
	// quantiles over all completed rows (log2-bucket resolution).
	LatencyP50, LatencyP90, LatencyP99 time.Duration
	// WindowMaxLatency is the worst latency over the recent scrape
	// windows — the resettable alternative to the all-time MaxLatency.
	WindowMaxLatency time.Duration
}

// Snapshot loads every counter and derives the mean batch size and mean
// per-row latency.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Accepted:    m.Accepted.Load(),
		Rejected:    m.Rejected.Load(),
		Completed:   m.Completed.Load(),
		Failed:      m.Failed.Load(),
		Expired:     m.Expired.Load(),
		Batches:     m.Batches.Load(),
		BatchedRows: m.BatchedRows.Load(),
		Reloads:     m.Reloads.Load(),
		MaxLatency:  time.Duration(m.MaxLatency.Load()),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.BatchedRows) / float64(s.Batches)
	}
	if s.Completed > 0 {
		s.MeanLatency = time.Duration(m.LatencyNs.Load() / s.Completed)
	}
	lh := m.LatencyHist.Snapshot()
	s.LatencyP50 = time.Duration(lh.Quantile(0.50))
	s.LatencyP90 = time.Duration(lh.Quantile(0.90))
	s.LatencyP99 = time.Duration(lh.Quantile(0.99))
	s.WindowMaxLatency = time.Duration(m.WinLatency.Value())
	return s
}

// ClassSnapshot is a point-in-time copy of one class's counters.
type ClassSnapshot struct {
	Class                                  string
	Accepted, Rejected, Completed, Expired int64
	MeanQueueWait, MaxQueueWait            time.Duration
	// WaitP50/P90/P99 are histogram-derived queue-wait quantiles;
	// WindowMaxQueueWait is the recent-scrape-window worst wait.
	WaitP50, WaitP90, WaitP99 time.Duration
	WindowMaxQueueWait        time.Duration
}

// ClassSnapshots reports every class's counters in the registry's class
// order (the Model's registry defines the class set).
func (m *Model) ClassSnapshots() []ClassSnapshot {
	out := make([]ClassSnapshot, m.qos.size())
	for i := range out {
		c := m.met.class(i)
		s := ClassSnapshot{
			Class:        m.qos.name(i),
			Accepted:     c.Accepted.Load(),
			Rejected:     c.Rejected.Load(),
			Completed:    c.Completed.Load(),
			Expired:      c.Expired.Load(),
			MaxQueueWait: time.Duration(c.MaxWaitNs.Load()),
		}
		if s.Completed > 0 {
			s.MeanQueueWait = time.Duration(c.QueueWaitNs.Load() / s.Completed)
		}
		wh := c.WaitHist.Snapshot()
		s.WaitP50 = time.Duration(wh.Quantile(0.50))
		s.WaitP90 = time.Duration(wh.Quantile(0.90))
		s.WaitP99 = time.Duration(wh.Quantile(0.99))
		s.WindowMaxQueueWait = time.Duration(c.WinWait.Value())
		out[i] = s
	}
	return out
}

// observe records one delivered row's enqueue→delivery latency,
// stamping the latency bucket's exemplar with the row's trace ID.
func (m *Metrics) observe(ns int64, traceID string) {
	m.LatencyNs.Add(ns)
	m.LatencyHist.ObserveTraced(ns, traceID)
	m.WinLatency.Observe(ns)
	for {
		old := m.MaxLatency.Load()
		if ns <= old || m.MaxLatency.CompareAndSwap(old, ns) {
			return
		}
	}
}

// The serve tier's metric families that another package reads back out
// of a /metrics scrape — the router's fleet merge, SLO engine and
// autoscaler, the selftests — which name these declarations, never a
// repeated string. Families nobody reads by name are declared in the
// table that writes them.
var (
	MetricRowsAccepted        = obs.NewCounter("radixserve_rows_accepted_total", "Rows admitted to the request queue.", "model")
	MetricRowsRejected        = obs.NewCounter("radixserve_rows_rejected_total", "Rows rejected with backpressure (class queue full).", "model")
	MetricRowsFailed          = obs.NewCounter("radixserve_rows_failed_total", "Rows failed by engine error or shutdown.", "model")
	MetricRowsExpired         = obs.NewCounter("radixserve_rows_expired_total", "Rows shed at dequeue for a passed deadline (never executed).", "model")
	MetricClassRowsAccepted   = obs.NewCounter("radixserve_class_rows_accepted_total", "Rows admitted to the class queue.", "model", "class")
	MetricClassRowsRejected   = obs.NewCounter("radixserve_class_rows_rejected_total", "Rows rejected because the class queue was full.", "model", "class")
	MetricClassRowsExpired    = obs.NewCounter("radixserve_class_rows_expired_total", "Rows of the class shed at dequeue for a passed deadline.", "model", "class")
	MetricRequestLatency      = obs.NewSeconds("radixserve_request_latency_seconds", "Enqueue-to-delivery latency of completed rows.", "model")
	MetricExecute             = obs.NewSeconds("radixserve_execute_seconds", "Engine invocation time per coalesced batch.", "model")
	MetricQueueWait           = obs.NewSeconds("radixserve_queue_wait_seconds", "Enqueue-to-dispatch queue wait of completed rows.", "model", "class")
	MetricClassRequestLatency = obs.NewSeconds("radixserve_class_request_latency_seconds", "Enqueue-to-delivery latency of completed rows, per class.", "model", "class")
	MetricEngineGedges        = obs.NewGauge("radixserve_engine_gedges_per_sec", "Whole-stack sampled throughput in Gedges/s.", "model")
)

// perClass writes one float sample per registry class of m.
func perClass(value func(m *Model, c int) float64) func(*obs.Writer, *Model) {
	return func(w *obs.Writer, m *Model) {
		for c := 0; c < m.qos.size(); c++ {
			w.Float(value(m, c), m.name, m.qos.name(c))
		}
	}
}

// modelFamilies is every family with a series per model (or per
// model×class), in exposition order, and how one model's samples of it
// are written. Float renders a counter at 1e6 as 1e+06, Int as 1000000.
// The histogram families all share obs's log2 le ladder, so the router
// can merge backend series bucket-wise by summing counts; the *_max and
// *_maxwindow gauges are the point series beside them.
var modelFamilies = []struct {
	fam  *obs.Family
	emit func(w *obs.Writer, m *Model)
}{
	{MetricRowsAccepted, func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Accepted.Load()), m.name) }},
	{MetricRowsRejected, func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Rejected.Load()), m.name) }},
	{obs.NewCounter("radixserve_rows_completed_total", "Rows inferred and delivered.", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Completed.Load()), m.name) }},
	{MetricRowsFailed, func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Failed.Load()), m.name) }},
	{MetricRowsExpired, func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Expired.Load()), m.name) }},
	{obs.NewCounter("radixserve_batches_total", "Engine invocations (coalesced batches).", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Batches.Load()), m.name) }},
	{obs.NewCounter("radixserve_batched_rows_total", "Rows summed over engine invocations.", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.BatchedRows.Load()), m.name) }},
	{obs.NewCounter("radixserve_engine_busy_seconds_total", "Engine time summed over invocations (drain-capacity basis).", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.ExecNs.Load())/1e9, m.name) }},
	{obs.NewGauge("radixserve_request_latency_seconds_max", "Worst single-row enqueue-to-delivery latency (all-time).", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.MaxLatency.Load())/1e9, m.name) }},
	{obs.NewGauge("radixserve_request_latency_seconds_maxwindow", "Worst single-row enqueue-to-delivery latency over the recent scrape windows (rotates on scrape).", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.WinLatency.Rotate())/1e9, m.name) }},
	{obs.NewCounter("radixserve_reloads_total", "Engine-pool hot swaps applied to the model.", "model"),
		func(w *obs.Writer, m *Model) { w.Float(float64(m.met.Reloads.Load()), m.name) }},

	{MetricClassRowsAccepted, perClass(func(m *Model, c int) float64 { return float64(m.met.class(c).Accepted.Load()) })},
	{MetricClassRowsRejected, perClass(func(m *Model, c int) float64 { return float64(m.met.class(c).Rejected.Load()) })},
	{obs.NewCounter("radixserve_class_rows_completed_total", "Rows inferred and delivered for the class.", "model", "class"),
		perClass(func(m *Model, c int) float64 { return float64(m.met.class(c).Completed.Load()) })},
	{MetricClassRowsExpired, perClass(func(m *Model, c int) float64 { return float64(m.met.class(c).Expired.Load()) })},
	{obs.NewGauge("radixserve_queue_wait_seconds_max", "Worst single-row enqueue-to-dispatch queue wait (all-time).", "model", "class"),
		perClass(func(m *Model, c int) float64 { return float64(m.met.class(c).MaxWaitNs.Load()) / 1e9 })},
	{obs.NewGauge("radixserve_queue_wait_seconds_maxwindow", "Worst single-row enqueue-to-dispatch queue wait over the recent scrape windows (rotates on scrape).", "model", "class"),
		perClass(func(m *Model, c int) float64 { return float64(m.met.class(c).WinWait.Rotate()) / 1e9 })},
	{obs.NewGauge("radixserve_class_queue_depth", "Rows currently queued in the class.", "model", "class"),
		perClass(func(m *Model, c int) float64 { return float64(m.bat.classDepth(c)) })},

	{MetricRequestLatency, func(w *obs.Writer, m *Model) { w.Hist(m.met.LatencyHist.Snapshot(), m.name) }},
	{MetricExecute, func(w *obs.Writer, m *Model) { w.Hist(m.met.ExecHist.Snapshot(), m.name) }},
	{MetricQueueWait, func(w *obs.Writer, m *Model) {
		for c := range m.met.classes {
			w.Hist(m.met.classes[c].WaitHist.Snapshot(), m.name, m.qos.name(c))
		}
	}},
	{MetricClassRequestLatency, func(w *obs.Writer, m *Model) {
		for c := range m.met.classes {
			w.Hist(m.met.classes[c].LatencyHist.Snapshot(), m.name, m.qos.name(c))
		}
	}},
	// Window 0..12: le ladder 1..4096 rows, the plausible batch range.
	{obs.NewBuckets("radixserve_batch_rows", "Rows per coalesced engine invocation.", 1, 0, 12, "model"),
		func(w *obs.Writer, m *Model) { w.Hist(m.met.BatchHist.Snapshot(), m.name) }},

	{obs.NewGauge("radixserve_queue_depth", "Pending rows in the request queues (all classes).", "model"),
		func(w *obs.Writer, m *Model) { w.Int(int64(m.bat.depth()), m.name) }},
	{obs.NewGauge("radixserve_queue_capacity", "Request queue bound summed over classes (depth/capacity is a valid utilization ratio; each class's own bound is capacity/classes).", "model"),
		func(w *obs.Writer, m *Model) { w.Int(int64(m.qos.size()*m.pol.QueueDepth), m.name) }},
	{obs.NewGauge("radixserve_model_generation", "Engine-pool generation (1 at registration, +1 per reload).", "model"),
		func(w *obs.Writer, m *Model) { w.Int(int64(m.Generation()), m.name) }},
	// Warm-pool utilization.
	{obs.NewGauge("radixserve_engine_pool_engines", "Warm engines in the model's current generation.", "model"),
		func(w *obs.Writer, m *Model) { engines, _ := m.PoolStats(); w.Int(int64(engines), m.name) }},
	{obs.NewGauge("radixserve_engine_pool_leased", "Engines currently leased out (executing or being checked out).", "model"),
		func(w *obs.Writer, m *Model) { _, leased := m.PoolStats(); w.Int(int64(leased), m.name) }},
}

// The engine-profiler families: the per-layer sampled kernel tallies
// with derived Gedges/s, the serving-stack view of the paper's per-layer
// edges/second metric.
var (
	metricProfileEvery = obs.NewGauge("radixserve_engine_profile_every", "Sampling stride of the engine-layer profiler (every Nth batch is timed).", "model")
	metricLayerSeconds = obs.NewCounter("radixserve_engine_layer_seconds_total", "Sampled kernel time per layer.", "model", "layer")
	metricLayerEdges   = obs.NewCounter("radixserve_engine_layer_edges_total", "Sampled edges (rows x layer nnz) per layer.", "model", "layer")
	metricLayerGedges  = obs.NewGauge("radixserve_engine_layer_gedges_per_sec", "Sampled per-layer throughput in Gedges/s (edges/ns over sampled batches).", "model", "layer")
)

// writeModelMetrics renders every model's families in Prometheus text
// exposition format, one labeled series per model (and per model×class
// for the QoS series), then — for models with layer profiling enabled —
// the engine-profiler families, from one profile snapshot per model.
func writeModelMetrics(w *obs.Writer, models []*Model) {
	for _, mf := range modelFamilies {
		w.Family(mf.fam)
		for _, m := range models {
			mf.emit(w, m)
		}
	}
	type profiled struct {
		model string
		snap  infer.ProfileSnapshot
	}
	var profs []profiled
	for _, m := range models {
		if snap, ok := m.Profile(); ok {
			profs = append(profs, profiled{m.name, snap})
		}
	}
	if len(profs) == 0 {
		return
	}
	w.Family(metricProfileEvery)
	for _, p := range profs {
		w.Int(int64(p.snap.Every), p.model)
	}
	for _, lf := range []struct {
		fam    *obs.Family
		sample func(l infer.LayerProfile, labels ...string)
	}{
		{metricLayerSeconds, func(l infer.LayerProfile, labels ...string) { w.Float(float64(l.Ns)/1e9, labels...) }},
		{metricLayerEdges, func(l infer.LayerProfile, labels ...string) { w.Int(l.Edges, labels...) }},
		{metricLayerGedges, func(l infer.LayerProfile, labels ...string) { w.Float(l.GedgesPerSec, labels...) }},
	} {
		w.Family(lf.fam)
		for _, p := range profs {
			for _, l := range p.snap.Layers {
				lf.sample(l, p.model, strconv.Itoa(l.Layer))
			}
		}
	}
	w.Family(MetricEngineGedges)
	for _, p := range profs {
		w.Float(p.snap.GedgesPerSec, p.model)
	}
}
