package serve

import (
	"strconv"
	"sync/atomic"

	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
)

// Metrics holds one model's serving instruments, one per quantity: a
// count or sum that another instrument already keeps is read from that
// instrument, never counted a second time. Row outcomes are counted per
// class, so the model's accepted, rejected and expired rows are the sums
// over its classes; its completed rows are LatencyHist's count, its
// batches and batched rows BatchHist's count and sum, and its engine-busy
// time ExecHist's sum. Snapshot reads the model-level counts. Every field
// is atomic and updated lock-free on the hot path. The classes slice (one
// entry per registry class, in qosSet order) is sized at registration and
// never resized, so per-class instruments are lock-free too.
type Metrics struct {
	Failed     atomic.Int64 // rows failed (engine error or shutdown)
	MaxLatency atomic.Int64 // worst single-row enqueue→delivery ns (all-time)
	Reloads    atomic.Int64 // engine-pool hot swaps (Registry.Reload)

	// LatencyHist buckets every completed row's enqueue→delivery latency
	// (ns); ExecHist buckets engine invocation time per batch (ns);
	// BatchHist buckets the rows per engine invocation (unit: rows). All
	// three are lock-free log2 histograms exported as Prometheus histogram
	// families, and their counts and sums are the model's completed rows,
	// batches, batched rows and engine-busy time.
	LatencyHist obs.Histogram
	ExecHist    obs.Histogram
	BatchHist   obs.Histogram
	// WinLatency is the scrape-windowed worst latency: unlike MaxLatency
	// it rotates on scrape, so long-lived fleets stop reporting an
	// all-time worst forever.
	WinLatency obs.WindowedMax

	classes []ClassMetrics
}

// ClassMetrics holds one priority class's instruments within a model.
type ClassMetrics struct {
	Accepted  atomic.Int64 // rows admitted to this class's queue
	Rejected  atomic.Int64 // rows of requests refused whole: this class's queue lacked room
	Expired   atomic.Int64 // rows shed at dequeue for a passed deadline
	MaxWaitNs atomic.Int64 // worst single-row enqueue→dispatch ns (all-time)

	// WaitHist buckets completed rows' queue waits (ns) — the
	// distribution the 25ms interactive p99 invariant and the Retry-After
	// hint are read from. WinWait is the scrape-windowed worst wait.
	// LatencyHist buckets the class's end-to-end enqueue→delivery latency
	// (ns) — the per-model×class distribution latency SLOs evaluate; its
	// count is the class's completed rows.
	WaitHist    obs.Histogram
	WinWait     obs.WindowedMax
	LatencyHist obs.Histogram
}

// observeWait records one dispatched row's enqueue→dispatch queue wait,
// stamping the wait bucket's exemplar with the row's trace ID.
func (c *ClassMetrics) observeWait(ns int64, traceID string) {
	c.WaitHist.ObserveTraced(ns, traceID)
	c.WinWait.Observe(ns)
	for {
		old := c.MaxWaitNs.Load()
		if ns <= old || c.MaxWaitNs.CompareAndSwap(old, ns) {
			return
		}
	}
}

// class returns the per-class instruments for a class id.
func (m *Metrics) class(i int) *ClassMetrics { return &m.classes[i] }

// MetricsSnapshot is a point-in-time copy of a model's counts, each read
// from the one instrument that keeps it (see Metrics). Fields are loaded
// individually; exactness across fields is not guaranteed under
// concurrent load. Distributions are read from /metrics.
type MetricsSnapshot struct {
	Accepted, Rejected, Completed, Failed int64
	Expired                               int64
	Batches, BatchedRows, Reloads         int64
}

// Snapshot reads every count: the row outcomes summed over the classes,
// completed rows from LatencyHist, batches and batched rows from
// BatchHist.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return m.counts(m.LatencyHist.Snapshot(), m.BatchHist.Snapshot())
}

// counts reads every count, taking completed rows, batches and batched
// rows from the given copies of LatencyHist and BatchHist.
func (m *Metrics) counts(latency, batch obs.HistSnapshot) MetricsSnapshot {
	s := MetricsSnapshot{
		Completed:   int64(latency.Count),
		Failed:      m.Failed.Load(),
		Batches:     int64(batch.Count),
		BatchedRows: batch.Sum,
		Reloads:     m.Reloads.Load(),
	}
	for i := range m.classes {
		c := &m.classes[i]
		s.Accepted += c.Accepted.Load()
		s.Rejected += c.Rejected.Load()
		s.Expired += c.Expired.Load()
	}
	return s
}

// modelRead is one model's instruments read once for a /metrics scrape
// and the SLO samples beside it: each histogram is copied once, and the
// counts a histogram keeps are read from that copy, so a scrape's
// counters agree with its histograms.
type modelRead struct {
	*Model
	n                    MetricsSnapshot
	latency, exec, batch obs.HistSnapshot
	wait, classLatency   []obs.HistSnapshot // per class, in qosSet order
}

// readModels reads each model's instruments once.
func readModels(models []*Model) []modelRead {
	out := make([]modelRead, len(models))
	for i, m := range models {
		met, r := &m.met, &out[i]
		*r = modelRead{Model: m,
			latency: met.LatencyHist.Snapshot(), exec: met.ExecHist.Snapshot(), batch: met.BatchHist.Snapshot(),
			wait: make([]obs.HistSnapshot, len(met.classes)), classLatency: make([]obs.HistSnapshot, len(met.classes))}
		for c := range met.classes {
			r.wait[c] = met.classes[c].WaitHist.Snapshot()
			r.classLatency[c] = met.classes[c].LatencyHist.Snapshot()
		}
		r.n = met.counts(r.latency, r.batch)
	}
	return out
}

// observe records one delivered row's enqueue→delivery latency,
// stamping the latency bucket's exemplar with the row's trace ID.
func (m *Metrics) observe(ns int64, traceID string) {
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
	MetricRowsRejected        = obs.NewCounter("radixserve_rows_rejected_total", "Rows of requests refused whole with backpressure (the class queue lacked room for all of them).", "model")
	MetricRowsFailed          = obs.NewCounter("radixserve_rows_failed_total", "Rows failed by engine error or shutdown.", "model")
	MetricRowsExpired         = obs.NewCounter("radixserve_rows_expired_total", "Rows shed at dequeue for a passed deadline (never executed).", "model")
	MetricClassRowsAccepted   = obs.NewCounter("radixserve_class_rows_accepted_total", "Rows admitted to the class queue.", "model", "class")
	MetricClassRowsRejected   = obs.NewCounter("radixserve_class_rows_rejected_total", "Rows of requests refused whole because the class queue lacked room for all of them.", "model", "class")
	MetricClassRowsExpired    = obs.NewCounter("radixserve_class_rows_expired_total", "Rows of the class shed at dequeue for a passed deadline.", "model", "class")
	MetricRequestLatency      = obs.NewSeconds("radixserve_request_latency_seconds", "Enqueue-to-delivery latency of completed rows.", "model")
	MetricExecute             = obs.NewSeconds("radixserve_execute_seconds", "Engine invocation time per coalesced batch.", "model")
	MetricQueueWait           = obs.NewSeconds("radixserve_queue_wait_seconds", "Enqueue-to-dispatch queue wait of completed rows.", "model", "class")
	MetricClassRequestLatency = obs.NewSeconds("radixserve_class_request_latency_seconds", "Enqueue-to-delivery latency of completed rows, per class.", "model", "class")
	MetricEngineGedges        = obs.NewGauge("radixserve_engine_gedges_per_sec", "Whole-stack sampled throughput in Gedges/s.", "model")
)

// perClass writes one float sample per registry class of m.
func perClass(value func(m *modelRead, c int) float64) func(*obs.Writer, *modelRead) {
	return func(w *obs.Writer, m *modelRead) {
		for c := 0; c < m.qos.size(); c++ {
			w.Float(value(m, c), m.name, m.qos.name(c))
		}
	}
}

// modelFamilies is every family with a series per model (or per
// model×class), in exposition order, and how one model's samples of it
// are written from its read. Float renders a counter at 1e6 as 1e+06,
// Int as 1000000.
// The histogram families all share obs's log2 le ladder, so the router
// can merge backend series bucket-wise by summing counts; the *_max and
// *_maxwindow gauges are the point series beside them.
var modelFamilies = []struct {
	fam  *obs.Family
	emit func(w *obs.Writer, m *modelRead)
}{
	{MetricRowsAccepted, func(w *obs.Writer, m *modelRead) { w.Float(float64(m.n.Accepted), m.name) }},
	{MetricRowsRejected, func(w *obs.Writer, m *modelRead) { w.Float(float64(m.n.Rejected), m.name) }},
	{obs.NewCounter("radixserve_rows_completed_total", "Rows inferred and delivered.", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.n.Completed), m.name) }},
	{MetricRowsFailed, func(w *obs.Writer, m *modelRead) { w.Float(float64(m.met.Failed.Load()), m.name) }},
	{MetricRowsExpired, func(w *obs.Writer, m *modelRead) { w.Float(float64(m.n.Expired), m.name) }},
	{obs.NewCounter("radixserve_batches_total", "Engine invocations (coalesced batches).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.n.Batches), m.name) }},
	{obs.NewCounter("radixserve_batched_rows_total", "Rows summed over engine invocations.", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.n.BatchedRows), m.name) }},
	{obs.NewCounter("radixserve_engine_busy_seconds_total", "Engine time summed over invocations (drain-capacity basis).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.exec.Sum)/1e9, m.name) }},
	{obs.NewGauge("radixserve_request_latency_seconds_max", "Worst single-row enqueue-to-delivery latency (all-time).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.met.MaxLatency.Load())/1e9, m.name) }},
	{obs.NewGauge("radixserve_request_latency_seconds_maxwindow", "Worst single-row enqueue-to-delivery latency over the recent scrape windows (rotates on scrape).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.met.WinLatency.Rotate())/1e9, m.name) }},
	{obs.NewCounter("radixserve_reloads_total", "Engine-pool hot swaps applied to the model.", "model"),
		func(w *obs.Writer, m *modelRead) { w.Float(float64(m.met.Reloads.Load()), m.name) }},

	{MetricClassRowsAccepted, perClass(func(m *modelRead, c int) float64 { return float64(m.met.class(c).Accepted.Load()) })},
	{MetricClassRowsRejected, perClass(func(m *modelRead, c int) float64 { return float64(m.met.class(c).Rejected.Load()) })},
	{obs.NewCounter("radixserve_class_rows_completed_total", "Rows inferred and delivered for the class.", "model", "class"),
		perClass(func(m *modelRead, c int) float64 { return float64(m.classLatency[c].Count) })},
	{MetricClassRowsExpired, perClass(func(m *modelRead, c int) float64 { return float64(m.met.class(c).Expired.Load()) })},
	{obs.NewGauge("radixserve_queue_wait_seconds_max", "Worst single-row enqueue-to-dispatch queue wait (all-time).", "model", "class"),
		perClass(func(m *modelRead, c int) float64 { return float64(m.met.class(c).MaxWaitNs.Load()) / 1e9 })},
	{obs.NewGauge("radixserve_queue_wait_seconds_maxwindow", "Worst single-row enqueue-to-dispatch queue wait over the recent scrape windows (rotates on scrape).", "model", "class"),
		perClass(func(m *modelRead, c int) float64 { return float64(m.met.class(c).WinWait.Rotate()) / 1e9 })},
	{obs.NewGauge("radixserve_class_queue_depth", "Rows currently queued in the class.", "model", "class"),
		perClass(func(m *modelRead, c int) float64 { return float64(m.bat.classDepth(c)) })},

	{MetricRequestLatency, func(w *obs.Writer, m *modelRead) { w.Hist(m.latency, m.name) }},
	{MetricExecute, func(w *obs.Writer, m *modelRead) { w.Hist(m.exec, m.name) }},
	{MetricQueueWait, func(w *obs.Writer, m *modelRead) {
		for c, h := range m.wait {
			w.Hist(h, m.name, m.qos.name(c))
		}
	}},
	{MetricClassRequestLatency, func(w *obs.Writer, m *modelRead) {
		for c, h := range m.classLatency {
			w.Hist(h, m.name, m.qos.name(c))
		}
	}},
	// Window 0..12: le ladder 1..4096 rows, the plausible batch range.
	{obs.NewBuckets("radixserve_batch_rows", "Rows per coalesced engine invocation.", 1, 0, 12, "model"),
		func(w *obs.Writer, m *modelRead) { w.Hist(m.batch, m.name) }},

	{obs.NewGauge("radixserve_queue_depth", "Pending rows in the request queues (all classes).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Int(int64(m.bat.depth()), m.name) }},
	{obs.NewGauge("radixserve_queue_capacity", "Request queue bound summed over classes (depth/capacity is a valid utilization ratio; each class's own bound is capacity/classes).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Int(int64(m.qos.size()*m.pol.QueueDepth), m.name) }},
	{obs.NewGauge("radixserve_model_generation", "Engine-pool generation (1 at registration, +1 per reload).", "model"),
		func(w *obs.Writer, m *modelRead) { w.Int(int64(m.Generation()), m.name) }},
	// Warm-pool utilization.
	{obs.NewGauge("radixserve_engine_pool_engines", "Warm engines in the model's current generation.", "model"),
		func(w *obs.Writer, m *modelRead) { engines, _ := m.PoolStats(); w.Int(int64(engines), m.name) }},
	{obs.NewGauge("radixserve_engine_pool_leased", "Engines currently leased out (executing or being checked out).", "model"),
		func(w *obs.Writer, m *modelRead) { _, leased := m.PoolStats(); w.Int(int64(leased), m.name) }},
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
// exposition format from one read per model, one labeled series per model
// (and per model×class for the QoS series), then — for models with layer
// profiling enabled — the engine-profiler families, from one profile
// snapshot per model.
func writeModelMetrics(w *obs.Writer, models []modelRead) {
	for _, mf := range modelFamilies {
		w.Family(mf.fam)
		for i := range models {
			mf.emit(w, &models[i])
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
