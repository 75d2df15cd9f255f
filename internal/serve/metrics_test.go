package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
)

// promSeries is a parsed Prometheus text exposition: series (full
// "name{labels}" key) → value, plus the declared TYPE per metric name.
type promSeries struct {
	values map[string]float64
	types  map[string]string
	helps  map[string]string
}

// parsePrometheus reads the text exposition format emitted on /metrics
// through obs.ParseScrape's strict reading: it fails the test on any
// malformed line, duplicate series or header, or unknown TYPE, so the
// exposition format itself is under test, not just the counter values.
func parsePrometheus(t *testing.T, text string) promSeries {
	t.Helper()
	sc := obs.ParseScrape(text)
	if err := sc.Check(); err != nil {
		t.Fatal(err)
	}
	p := promSeries{
		values: make(map[string]float64),
		types:  make(map[string]string),
		helps:  make(map[string]string),
	}
	for i := range sc.Samples {
		p.values[sc.Samples[i].Series()] = sc.Samples[i].Value
	}
	for _, m := range sc.Meta {
		if m.Kind == "TYPE" {
			p.types[m.Name] = m.Text
		} else {
			p.helps[m.Name] = m.Text
		}
	}
	return p
}

func (p promSeries) value(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := p.values[series]
	if !ok {
		t.Fatalf("series %q missing", series)
	}
	return v
}

// TestMetricsExpositionAfterKnownSequence drives a known request sequence
// and asserts the exact counter names and values on /metrics: three
// sequential rows through the batcher (exactly three batches — a
// sequential client blocks on each row, so no coalescing is possible), two
// 2xx GETs and one 404 POST through the HTTP layer.
func TestMetricsExpositionAfterKnownSequence(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)

	row := make([]float64, m.InputWidth())
	row[1] = 1
	out := make([]float64, m.OutputWidth())
	for i := 0; i < 3; i++ {
		if err := doRow(m, row, out); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/v1/models", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, _ := postInfer(t, ts.URL, InferRequest{Model: "ghost", Inputs: [][]float64{row}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	p := parsePrometheus(t, string(text))

	// Exact per-model counters after the known sequence. The 404 POST never
	// reached the batcher, so only the three direct rows count.
	for series, want := range map[string]float64{
		`radixserve_rows_accepted_total{model="m"}`:  3,
		`radixserve_rows_rejected_total{model="m"}`:  0,
		`radixserve_rows_completed_total{model="m"}`: 3,
		`radixserve_rows_failed_total{model="m"}`:    0,
		`radixserve_batches_total{model="m"}`:        3,
		`radixserve_batched_rows_total{model="m"}`:   3,
		`radixserve_queue_depth{model="m"}`:          0,
		// Capacity sums the per-class bounds (3 default classes × QueueDepth
		// 7) so depth/capacity stays a valid utilization ratio now that
		// depth sums all classes.
		`radixserve_queue_capacity{model="m"}`: 21,
	} {
		if got := p.value(t, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	// Latency accumulates over completed rows; exact values vary, but the
	// sum must be positive and the max must not exceed it.
	sum := p.value(t, `radixserve_request_latency_seconds_sum{model="m"}`)
	max := p.value(t, `radixserve_request_latency_seconds_max{model="m"}`)
	if sum <= 0 || max <= 0 || max > sum {
		t.Errorf("latency sum %g / max %g inconsistent", sum, max)
	}

	// HTTP status-class counters: /v1/models + /healthz succeeded, the
	// unknown-model POST 404'd. The /metrics request itself is counted only
	// after its response is written, so it is not in its own exposition.
	for series, want := range map[string]float64{
		`radixserve_http_responses_total{class="2xx"}`: 2,
		`radixserve_http_responses_total{class="4xx"}`: 1,
		`radixserve_http_responses_total{class="5xx"}`: 0,
	} {
		if got := p.value(t, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	if up := p.value(t, "radixserve_uptime_seconds"); up <= 0 {
		t.Errorf("uptime %g, want > 0", up)
	}

	// Every exported metric must declare HELP and TYPE, with counters named
	// *_total or *_sum per Prometheus convention.
	for _, name := range []string{
		"radixserve_rows_accepted_total", "radixserve_rows_rejected_total",
		"radixserve_rows_completed_total", "radixserve_rows_failed_total",
		"radixserve_batches_total", "radixserve_batched_rows_total",
		"radixserve_request_latency_seconds", "radixserve_request_latency_seconds_max",
		"radixserve_request_latency_seconds_maxwindow", "radixserve_execute_seconds",
		"radixserve_queue_depth", "radixserve_queue_capacity",
		"radixserve_http_responses_total", "radixserve_uptime_seconds",
	} {
		if p.helps[name] == "" {
			t.Errorf("metric %s has no HELP", name)
		}
		typ, ok := p.types[name]
		if !ok {
			t.Errorf("metric %s has no TYPE", name)
			continue
		}
		isCounter := strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_sum")
		switch {
		case name == "radixserve_request_latency_seconds" || name == "radixserve_execute_seconds":
			if typ != "histogram" {
				t.Errorf("metric %s TYPE %s, want histogram", name, typ)
			}
		case isCounter && typ != "counter":
			t.Errorf("metric %s TYPE %s, want counter", name, typ)
		case !isCounter && typ != "gauge":
			t.Errorf("metric %s TYPE %s, want gauge", name, typ)
		}
	}
}

// TestClassQueueWaitExposition drives rows of two classes and asserts the
// per-class QoS series on /metrics: queue-wait (previously recorded on
// pending.enq but never exported) now appears as
// radixserve_queue_wait_seconds_sum/_max per model×class, alongside the
// per-class row counters and depth gauge, all with HELP/TYPE declared.
func TestClassQueueWaitExposition(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)

	row := make([]float64, m.InputWidth())
	row[1] = 1
	for i := 0; i < 2; i++ {
		if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: ClassInteractive}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: ClassBackground}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	p := parsePrometheus(t, string(text))

	for series, want := range map[string]float64{
		`radixserve_class_rows_accepted_total{model="m",class="interactive"}`:  2,
		`radixserve_class_rows_completed_total{model="m",class="interactive"}`: 2,
		`radixserve_class_rows_accepted_total{model="m",class="background"}`:   1,
		`radixserve_class_rows_completed_total{model="m",class="background"}`:  1,
		`radixserve_class_rows_completed_total{model="m",class="batch"}`:       0,
		`radixserve_class_rows_rejected_total{model="m",class="interactive"}`:  0,
		`radixserve_class_rows_expired_total{model="m",class="interactive"}`:   0,
		`radixserve_class_queue_depth{model="m",class="interactive"}`:          0,
	} {
		if got := p.value(t, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	// Completed rows sat in the queue a nonzero time; max ≤ sum and an idle
	// class exports zero wait.
	for _, class := range []string{"interactive", "background"} {
		sum := p.value(t, fmt.Sprintf("radixserve_queue_wait_seconds_sum{model=%q,class=%q}", "m", class))
		max := p.value(t, fmt.Sprintf("radixserve_queue_wait_seconds_max{model=%q,class=%q}", "m", class))
		if sum <= 0 || max <= 0 || max > sum {
			t.Errorf("class %s queue-wait sum %g / max %g inconsistent", class, sum, max)
		}
	}
	if idle := p.value(t, `radixserve_queue_wait_seconds_sum{model="m",class="batch"}`); idle != 0 {
		t.Errorf("idle class accumulated queue wait %g", idle)
	}
	for _, name := range []string{
		"radixserve_class_rows_accepted_total", "radixserve_class_rows_rejected_total",
		"radixserve_class_rows_completed_total", "radixserve_class_rows_expired_total",
		"radixserve_queue_wait_seconds", "radixserve_queue_wait_seconds_max",
		"radixserve_queue_wait_seconds_maxwindow",
		"radixserve_class_queue_depth", "radixserve_rows_expired_total",
	} {
		if p.helps[name] == "" {
			t.Errorf("metric %s has no HELP", name)
		}
		if _, ok := p.types[name]; !ok {
			t.Errorf("metric %s has no TYPE", name)
		}
	}
}

// TestMetricsRejectionCounters saturates a starved model and asserts the
// rejected/accepted split on /metrics matches the client-observed split.
func TestMetricsRejectionCounters(t *testing.T) {
	pol := Policy{MaxBatch: 2, MaxLatency: time.Millisecond, QueueDepth: 2}
	_, m, ts := newTestServer(t, pol, 1)
	eng := m.Lease() // starve the worker so the queue can only fill
	row := make([]float64, m.InputWidth())
	row[0] = 1

	var rejected, accepted int
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			out := make([]float64, m.OutputWidth())
			done <- doRow(m, row, out)
		}()
	}
	// The worker holds at most MaxBatch rows and the queue at most
	// QueueDepth, so at least 8−2−2 submissions must be rejected.
	deadline := time.Now().Add(5 * time.Second)
	for m.Metrics().Snapshot().Rejected < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Release(eng)
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("split %d ok / %d rejected, want both nonzero", accepted, rejected)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	p := parsePrometheus(t, string(text))
	for series, want := range map[string]float64{
		`radixserve_rows_accepted_total{model="m"}`:  float64(accepted),
		`radixserve_rows_rejected_total{model="m"}`:  float64(rejected),
		`radixserve_rows_completed_total{model="m"}`: float64(accepted),
	} {
		if got := p.value(t, series); got != want {
			t.Errorf("%s = %g, want %g (client split: %d/%d)", series, got, want, accepted, rejected)
		}
	}
	if got := p.value(t, fmt.Sprintf("radixserve_queue_depth{model=%q}", "m")); got != 0 {
		t.Errorf("queue depth %g after drain, want 0", got)
	}
}

// TestClosedModelRefusalKeepsIdentity: a request refused by a closed model
// counts its rows as accepted and failed, so the in-flight identity
// accepted = completed + failed + expired + queued still holds, as it does
// for a dead-on-arrival request.
func TestClosedModelRefusalKeepsIdentity(t *testing.T) {
	reg := NewRegistry(Policy{})
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	row := make([]float64, m.InputWidth())
	if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{row, row, row}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("request to a closed model: %v, want ErrClosed", err)
	}
	s := m.Metrics().Snapshot()
	if s.Accepted != 3 || s.Failed != 3 {
		t.Fatalf("accepted %d, failed %d, want 3 and 3", s.Accepted, s.Failed)
	}
	if gap := s.Accepted - (s.Completed + s.Failed + s.Expired + int64(m.bat.depth())); gap != 0 {
		t.Fatalf("accepted − (completed + failed + expired + queued) = %d, want 0", gap)
	}
}

// TestMetricsDerivedCountersAgree drives one model through a mixed
// workload — completions in two classes, a dead-on-arrival expiry, a
// queued expiry and a queue-full rejection — and checks, on the /metrics
// text after the drain, that every model-level count agrees with the
// instruments it is derived from: the row counters with their per-class
// sums, completions with the latency histogram's count, batches and
// batched rows with the batch-size histogram, and the in-flight identity
// accepted = completed + failed + expired + queued.
func TestMetricsDerivedCountersAgree(t *testing.T) {
	pol := Policy{MaxBatch: 2, MaxLatency: time.Millisecond, QueueDepth: 1}
	_, m, ts := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	row[2] = 1
	do := func(class string, deadline time.Time) error {
		_, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: class, Deadline: deadline})
		return err
	}
	// One-row requests: each class queue holds one row.
	for _, class := range []string{ClassInteractive, ClassInteractive, ClassBatch} {
		if err := do(class, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := do(ClassBatch, time.Now().Add(-time.Second)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("dead-on-arrival request: %v, want ErrDeadlineExceeded", err)
	}

	// Starve the worker: it holds an interactive row while it waits for
	// the only engine, so a background row with a short deadline stays
	// queued until the deadline passes, and a second background row finds
	// that class's one-row queue full.
	eng := m.Lease()
	blocker := make(chan error, 1)
	go func() { blocker <- do(ClassInteractive, time.Time{}) }()
	waitFor(t, "worker holds the blocker", func() bool {
		return m.bat.inflight.Load() == 1 && m.bat.depth() == 0
	})
	time.Sleep(5 * time.Millisecond) // outwait the blocker batch's collection window
	queued := make(chan error, 1)
	go func() { queued <- do(ClassBackground, time.Now().Add(20*time.Millisecond)) }()
	waitFor(t, "background row queued", func() bool { return m.bat.depth() == 1 })
	if err := do(ClassBackground, time.Time{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second background row: %v, want ErrQueueFull", err)
	}
	time.Sleep(40 * time.Millisecond) // let the queued row's deadline pass
	m.Release(eng)
	if err := <-blocker; err != nil {
		t.Fatalf("blocker row: %v", err)
	}
	if err := <-queued; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued row: %v, want ErrDeadlineExceeded", err)
	}

	p := parsePrometheus(t, scrapeMetrics(t, ts.URL))
	model := func(name string) float64 { return p.value(t, name+`{model="m"}`) }
	for _, outcome := range []struct {
		name string
		want float64
	}{{"accepted", 6}, {"rejected", 1}, {"completed", 4}, {"expired", 2}} {
		got := model("radixserve_rows_" + outcome.name + "_total")
		var classes float64
		for _, class := range []string{ClassInteractive, ClassBatch, ClassBackground} {
			classes += p.value(t, fmt.Sprintf(`radixserve_class_rows_%s_total{model="m",class=%q}`, outcome.name, class))
		}
		if got != outcome.want || got != classes {
			t.Errorf("rows %s: model %g, class sum %g, want both %g", outcome.name, got, classes, outcome.want)
		}
	}
	completed := model("radixserve_rows_completed_total")
	if n := model("radixserve_request_latency_seconds_count"); n != completed {
		t.Errorf("latency histogram count %g, completed rows %g", n, completed)
	}
	if b, n := model("radixserve_batches_total"), model("radixserve_batch_rows_count"); b != n || b == 0 {
		t.Errorf("batches %g, batch-size histogram count %g", b, n)
	}
	if r, s := model("radixserve_batched_rows_total"), model("radixserve_batch_rows_sum"); r != s || r != completed {
		t.Errorf("batched rows %g, batch-size histogram sum %g, completed %g", r, s, completed)
	}
	accepted := model("radixserve_rows_accepted_total")
	if rest := completed + model("radixserve_rows_failed_total") + model("radixserve_rows_expired_total") + model("radixserve_queue_depth"); accepted != rest {
		t.Errorf("accepted %g != completed + failed + expired + queued = %g", accepted, rest)
	}
}
