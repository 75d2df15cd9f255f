package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
)

// TestMetricsScrapeRacingScrapers is the regression test for racing
// /metrics scrapes: rendering rotates the windowed-max gauges, so two
// concurrent scrapers must be serialized — a single observed peak is
// reported by exactly two scrapes (current window, then the retained
// previous one) and by no more, with no torn or duplicated windows.
func TestMetricsScrapeRacingScrapers(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)
	m.Metrics().WinLatency.Observe(int64(123 * time.Millisecond))

	const scrapers = 8
	results := make([]string, scrapers)
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = scrapeMetrics(t, ts.URL)
		}(i)
	}
	wg.Wait()

	series := `radixserve_request_latency_seconds_maxwindow{model="m"}`
	seen := 0
	for _, text := range results {
		if v := parsePrometheus(t, text).value(t, series); v > 0 {
			if v != 0.123 {
				t.Fatalf("maxwindow = %g, want 0.123 (torn window?)", v)
			}
			seen++
		}
	}
	if seen != 2 {
		t.Fatalf("peak visible in %d of %d racing scrapes, want exactly 2 (cur + prev window)", seen, scrapers)
	}
}

// TestInferResponseSpansHeader pins the serve half of trace stitching:
// every 200 carries the span breakdown in X-Radix-Spans, in the compact
// codec the router grafts from.
func TestInferResponseSpansHeader(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	resp, _ := postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	enc := resp.Header.Get(obs.HeaderSpans)
	if enc == "" {
		t.Fatalf("no %s header on a 200", obs.HeaderSpans)
	}
	spans, err := obs.DecodeSpans(enc)
	if err != nil {
		t.Fatalf("DecodeSpans(%q): %v", enc, err)
	}
	names := make(map[string]bool, len(spans))
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"queue", "execute"} {
		if !names[want] {
			t.Fatalf("span %q missing from header %q", want, enc)
		}
	}
}

// TestExemplarResolvesToTrace drives one request and follows the full
// exemplar jump: response trace ID → bucket annotation on /metrics →
// /debug/traces?trace=<id> → the stitched trace.
func TestExemplarResolvesToTrace(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	resp, body := postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{row}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ir InferResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.TraceID) != 32 {
		t.Fatalf("trace ID %q", ir.TraceID)
	}

	sc := obs.ParseScrape(scrapeMetrics(t, ts.URL))
	found := false
	for i := range sc.Samples {
		sm := &sc.Samples[i]
		if model, _ := sm.Label("model"); sm.Name == MetricRequestLatency.Name()+"_bucket" && model == "m" && sm.Exemplar.TraceID == ir.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no latency bucket carries exemplar trace %s", ir.TraceID)
	}

	tr, err := http.Get(ts.URL + "/debug/traces?trace=" + ir.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("?trace=%s: status %d", ir.TraceID, tr.StatusCode)
	}
	var view struct {
		Trace *obs.Trace `json:"trace"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Trace == nil || view.Trace.ID != ir.TraceID || len(view.Trace.Spans) == 0 {
		t.Fatalf("exemplar did not resolve to a spanned trace: %+v", view.Trace)
	}
}

func TestSLOEndpointUnconfigured(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, _, ts := newTestServer(t, pol, 1)
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/slo with no objectives: status %d, want 404", resp.StatusCode)
	}
}

// TestSLOEndpointViolation arms an unmeetable latency objective, drives
// traffic, and asserts GET /v1/slo reports it violated while the loose
// objective stays ok — and that the radixserve_slo_* gauges agree.
func TestSLOEndpointViolation(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	cfg := testConfig(t)
	reg := NewRegistry(pol)
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	objectives, err := slo.ParseObjectives([]string{"m::1us:99", "m::10s:50"})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerOpts(reg, "127.0.0.1:0", ServerOptions{SLO: objectives})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })

	row := make([]float64, m.InputWidth())
	out := make([]float64, m.OutputWidth())
	for i := 0; i < 4; i++ {
		if err := doRow(m, row, out); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/slo: Content-Type %q, want application/json", ct)
	}
	var view slo.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	var breached, loose *slo.Status
	for i := range view.Statuses {
		st := &view.Statuses[i]
		if st.Model != "m" || st.Class != "" {
			continue
		}
		switch st.Objective.Latency {
		case time.Microsecond:
			breached = st
		case 10 * time.Second:
			loose = st
		}
	}
	if breached == nil || loose == nil {
		t.Fatalf("objectives missing from view: %+v", view.Statuses)
	}
	if breached.State != slo.StateViolated || breached.FastBurn < view.FastBurn {
		t.Fatalf("1µs objective: state %q fast burn %g (threshold %g), want violated above threshold",
			breached.State, breached.FastBurn, view.FastBurn)
	}
	if loose.State != slo.StateOK {
		t.Fatalf("10s objective: state %q, want ok", loose.State)
	}

	p := parsePrometheus(t, scrapeMetrics(t, ts.URL))
	stateSeries := `radixserve_slo_state{objective="` + breached.Objective.Name + `",model="m",class=""}`
	if v := p.value(t, stateSeries); v != 2 {
		t.Fatalf("slo_state gauge = %g, want 2 (violated)", v)
	}
	burnSeries := `radixserve_slo_fast_burn{objective="` + breached.Objective.Name + `",model="m",class=""}`
	if v := p.value(t, burnSeries); v < view.FastBurn {
		t.Fatalf("slo_fast_burn gauge = %g, want >= threshold %g", v, view.FastBurn)
	}
}
