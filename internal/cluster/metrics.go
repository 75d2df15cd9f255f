package cluster

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
)

// routerMetrics counts the router's own activity; per-backend forwarding
// stats live on Backend. All atomic, exported on /metrics as radixrouter_*.
type routerMetrics struct {
	requests   atomic.Int64 // POST /v1/infer requests received
	failovers  atomic.Int64 // attempts moved to the next replica
	backoffs   atomic.Int64 // 429 Retry-After backoffs honored
	unroutable atomic.Int64 // requests with no healthy owner (502/503)
	deadlines  atomic.Int64 // requests whose budget expired router-side (504)
	admin      atomic.Int64 // control-plane operations fanned out
	shed       atomic.Int64 // requests 429'd by autoscale class shedding
	scaleUps   atomic.Int64 // autoscale scale-out actuations applied
	scaleDowns atomic.Int64 // autoscale scale-in actuations applied

	// classes counts requests by QoS class name (unlabeled requests under
	// "default"). Written on the request path via sync.Map so an unbounded
	// client-chosen class vocabulary never needs a lock.
	classes sync.Map // string → *atomic.Int64
}

// classRequest counts one routed request against its class label. Callers
// must pass a label from the router's bounded vocabulary (Router.classLabel
// buckets unknown client strings as "other"), never a raw request string —
// the map and the exported series grow one entry per distinct label.
func (m *routerMetrics) classRequest(class string) {
	v, ok := m.classes.Load(class)
	if !ok {
		v, _ = m.classes.LoadOrStore(class, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// classCounts snapshots the per-class request counters; nil before the
// first request.
func (m *routerMetrics) classCounts() map[string]int64 {
	var counts map[string]int64
	m.classes.Range(func(k, v any) bool {
		if counts == nil {
			counts = make(map[string]int64)
		}
		counts[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return counts
}

// RouterMetricsSnapshot is a point-in-time copy of the router's counters.
type RouterMetricsSnapshot struct {
	Requests      int64            `json:"requests"`
	Failovers     int64            `json:"failovers"`
	Backoffs      int64            `json:"backoffs"`
	Unroutable    int64            `json:"unroutable"`
	Deadlines     int64            `json:"deadlines"`
	Admin         int64            `json:"admin"`
	Shed          int64            `json:"shed"`
	ScaleUps      int64            `json:"scale_ups"`
	ScaleDowns    int64            `json:"scale_downs"`
	ClassRequests map[string]int64 `json:"class_requests,omitempty"`
}

func (m *routerMetrics) snapshot() RouterMetricsSnapshot {
	return RouterMetricsSnapshot{
		Requests:      m.requests.Load(),
		Failovers:     m.failovers.Load(),
		Backoffs:      m.backoffs.Load(),
		Unroutable:    m.unroutable.Load(),
		Deadlines:     m.deadlines.Load(),
		Admin:         m.admin.Load(),
		Shed:          m.shed.Load(),
		ScaleUps:      m.scaleUps.Load(),
		ScaleDowns:    m.scaleDowns.Load(),
		ClassRequests: m.classCounts(),
	}
}

// routerCounters are the router's own unlabeled counters, in exposition
// order.
var routerCounters = []struct {
	fam   *obs.Family
	value func(m *routerMetrics) *atomic.Int64
}{
	{obs.NewCounter("radixrouter_requests_total", "Inference requests received by the router."),
		func(m *routerMetrics) *atomic.Int64 { return &m.requests }},
	{obs.NewCounter("radixrouter_failovers_total", "Forward attempts retried on the next replica."),
		func(m *routerMetrics) *atomic.Int64 { return &m.failovers }},
	{obs.NewCounter("radixrouter_backoffs_total", "Retry-After backoffs honored on 429 responses."),
		func(m *routerMetrics) *atomic.Int64 { return &m.backoffs }},
	{obs.NewCounter("radixrouter_unroutable_total", "Requests dropped with no healthy owner."),
		func(m *routerMetrics) *atomic.Int64 { return &m.unroutable }},
	{obs.NewCounter("radixrouter_deadlines_total", "Requests whose deadline budget expired router-side (504 without a forward)."),
		func(m *routerMetrics) *atomic.Int64 { return &m.deadlines }},
	{obs.NewCounter("radixrouter_admin_total", "Model control-plane operations (register/reload/unregister) fanned out."),
		func(m *routerMetrics) *atomic.Int64 { return &m.admin }},
	{obs.NewCounter("radixrouter_shed_total", "Requests 429'd router-side by autoscale class shedding."),
		func(m *routerMetrics) *atomic.Int64 { return &m.shed }},
	{obs.NewCounter("radixrouter_autoscale_up_total", "Autoscale scale-out actuations applied."),
		func(m *routerMetrics) *atomic.Int64 { return &m.scaleUps }},
	{obs.NewCounter("radixrouter_autoscale_down_total", "Autoscale scale-in actuations applied."),
		func(m *routerMetrics) *atomic.Int64 { return &m.scaleDowns }},
}

// backendFamilies are the per-backend health and traffic series.
var backendFamilies = []struct {
	fam   *obs.Family
	value func(b *Backend) int64
}{
	{obs.NewGauge("radixrouter_backend_healthy", "Whether the backend is in rotation (1) or ejected (0).", "backend"),
		func(b *Backend) int64 {
			if b.Healthy() {
				return 1
			}
			return 0
		}},
	{obs.NewCounter("radixrouter_backend_forwarded_total", "Requests answered by the backend.", "backend"),
		func(b *Backend) int64 { return b.forwarded.Load() }},
	{obs.NewCounter("radixrouter_backend_failed_total", "Forward attempts lost to transport or 5xx errors.", "backend"),
		func(b *Backend) int64 { return b.failed.Load() }},
	{obs.NewCounter("radixrouter_backend_probe_failures_total", "Health probes failed.", "backend"),
		func(b *Backend) int64 { return b.probeFailures.Load() }},
}

var (
	metricClassRequests  = obs.NewCounter("radixrouter_class_requests_total", "Inference requests received, by QoS class.", "class")
	metricAttemptLatency = obs.NewSeconds("radixrouter_backend_attempt_latency_seconds", "Round-trip latency of answered forward attempts, per backend.", "backend")
	metricUptime         = obs.NewGauge("radixrouter_uptime_seconds", "Router uptime.")
	writeSLOMetrics      = slo.Exposition("radixrouter")
	writeRuntimeMetrics  = obs.RuntimeExposition("radixrouter")
)

// writeRouterMetrics renders the router's own series plus per-backend
// health and traffic gauges.
func writeRouterMetrics(w *obs.Writer, met *routerMetrics, backends []*Backend, uptimeSeconds float64) {
	for _, c := range routerCounters {
		w.Family(c.fam).Int(c.value(met).Load())
	}
	if counts := met.classCounts(); len(counts) > 0 {
		w.Family(metricClassRequests)
		for _, name := range slices.Sorted(maps.Keys(counts)) {
			w.Int(counts[name], name)
		}
	}
	for _, bf := range backendFamilies {
		w.Family(bf.fam)
		for _, b := range backends {
			w.Int(bf.value(b), b.id)
		}
	}
	w.Family(metricAttemptLatency)
	for _, b := range backends {
		w.Hist(b.attempt.Snapshot(), b.id)
	}
	w.Family(metricUptime).Float(uptimeSeconds)
}
