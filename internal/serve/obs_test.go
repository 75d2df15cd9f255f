package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/radix"
)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestHistogramExposition drives known rows and asserts the histogram
// families on /metrics parse back with exact counts and the shared log2
// bucket ladder — the contract the router's bucket-wise merge and the
// selftests' p99 assertions both depend on.
func TestHistogramExposition(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)

	row := make([]float64, m.InputWidth())
	row[1] = 1
	const rows = 5
	for i := 0; i < rows; i++ {
		if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: ClassInteractive}); err != nil {
			t.Fatal(err)
		}
	}
	text := scrapeMetrics(t, ts.URL)

	sc := obs.ParseScrape(text)
	if err := sc.Check(); err != nil {
		t.Fatal(err)
	}
	// hist merges one family's series matching the label filter.
	hist := func(f *obs.Family, where ...obs.Label) (obs.ScrapedHist, bool) {
		hs := obs.MergeHist(f, nil, where, sc)
		if len(hs) == 0 {
			return obs.ScrapedHist{}, false
		}
		return hs[0].Hist, true
	}
	lat, ok := hist(MetricRequestLatency, obs.Label{Name: "model", Value: "m"})
	if !ok {
		t.Fatalf("latency histogram missing from exposition:\n%s", text)
	}
	if lat.Count != rows {
		t.Fatalf("latency count = %d, want %d", lat.Count, rows)
	}
	// Exact ladder: first emitted bound is 2^12ns, last is 2^34ns, and the
	// cumulative counts are monotone ending at Count.
	if len(lat.Les) == 0 || lat.Les[0] != 4.096e-06 {
		t.Fatalf("first le = %v, want 4.096e-06", lat.Les)
	}
	if last := lat.Les[len(lat.Les)-1]; last != float64(int64(1)<<34)/1e9 {
		t.Fatalf("last le = %g, want %g", last, float64(int64(1)<<34)/1e9)
	}
	prev := uint64(0)
	for i, c := range lat.Cum {
		if c < prev {
			t.Fatalf("non-monotone bucket counts at %d", i)
		}
		prev = c
	}
	if prev != lat.Count {
		t.Fatalf("final cumulative %d != count %d", prev, lat.Count)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 || p99 > 10 {
		t.Fatalf("latency p99 = %gs, implausible", p99)
	}

	wait, ok := hist(MetricQueueWait, obs.Label{Name: "model", Value: "m"}, obs.Label{Name: "class", Value: "interactive"})
	if !ok || wait.Count != rows {
		t.Fatalf("interactive queue-wait histogram: ok=%v count=%d, want %d", ok, wait.Count, rows)
	}
	if idle, ok := hist(MetricQueueWait, obs.Label{Name: "model", Value: "m"}, obs.Label{Name: "class", Value: "batch"}); !ok || idle.Count != 0 {
		t.Fatalf("idle class histogram: ok=%v count=%d, want present and 0", ok, idle.Count)
	}
	if ex, ok := hist(MetricExecute, obs.Label{Name: "model", Value: "m"}); !ok || ex.Count == 0 {
		t.Fatalf("execute histogram: ok=%v count=%d, want > 0", ok, ex.Count)
	}
}

// TestWindowedMaxResetsOnScrape asserts the maxwindow gauge forgets an
// old peak after scrapes while the all-time max keeps it.
func TestWindowedMaxResetsOnScrape(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, ts := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	out := make([]float64, m.OutputWidth())
	if err := doRow(m, row, out); err != nil {
		t.Fatal(err)
	}
	series := `radixserve_request_latency_seconds_maxwindow{model="m"}`
	p := parsePrometheus(t, scrapeMetrics(t, ts.URL))
	if v := p.value(t, series); v <= 0 {
		t.Fatalf("maxwindow = %g right after traffic, want > 0", v)
	}
	// Each scrape rotates the window; after two idle scrapes the peak has
	// aged out of both retained windows.
	scrapeMetrics(t, ts.URL)
	p = parsePrometheus(t, scrapeMetrics(t, ts.URL))
	if v := p.value(t, series); v != 0 {
		t.Fatalf("maxwindow = %g after idle scrapes, want 0", v)
	}
	if v := p.value(t, `radixserve_request_latency_seconds_max{model="m"}`); v <= 0 {
		t.Fatalf("all-time max lost: %g", v)
	}
	if worst := m.Metrics().MaxLatency.Load(); worst <= 0 {
		t.Fatalf("all-time max instrument = %v", time.Duration(worst))
	}
}

// TestRetryAfterFromWaitHistogram is the regression test for the 429 hint:
// once the class has enough samples, the hint must come from the queue-wait
// p90 and stay within a deadline-scale budget rather than ballooning to the
// old depth-based estimate, and it must respect the [1,30]s clamp.
func TestRetryAfterFromWaitHistogram(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, _ := newTestServer(t, pol, 1)
	id, err := m.qos.id(ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	cm := m.met.class(id)

	// Below the sample floor the cold fallback answers (≥ 1s, clamped).
	if got := m.RetryAfterSeconds(ClassInteractive); got < 1 || got > 30 {
		t.Fatalf("cold hint = %d, want within [1,30]", got)
	}
	// Waits all well under a 2s deadline budget → hint must be the 1s
	// floor, comfortably inside the budget.
	for i := 0; i < 100; i++ {
		cm.WaitHist.Observe(int64(5 * time.Millisecond))
	}
	if got := m.RetryAfterSeconds(ClassInteractive); got != 1 {
		t.Fatalf("hint after 5ms waits = %ds, want 1 (within deadline budget)", got)
	}
	// Pathological waits clamp at 30s.
	for i := 0; i < 1000; i++ {
		cm.WaitHist.Observe(int64(120 * time.Second))
	}
	if got := m.RetryAfterSeconds(ClassInteractive); got != 30 {
		t.Fatalf("hint after 120s waits = %ds, want 30 (clamp)", got)
	}
}

// TestResponseTraceAndSpans asserts Do returns a trace ID and the five
// scheduler spans with plausible timings.
func TestResponseTraceAndSpans(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	_, m, _ := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	resp, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, TraceID: "cafe0000"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "cafe0000" {
		t.Fatalf("trace id = %q, want echo of caller's", resp.TraceID)
	}
	want := []string{"queue", "assemble", "lease", "execute", "deliver"}
	if len(resp.Spans) != len(want) {
		t.Fatalf("spans = %d, want %d: %+v", len(resp.Spans), len(want), resp.Spans)
	}
	var exec float64
	for i, s := range resp.Spans {
		if s.Name != want[i] {
			t.Fatalf("span %d = %q, want %q", i, s.Name, want[i])
		}
		if s.DurMs < 0 {
			t.Fatalf("span %q negative: %v", s.Name, s.DurMs)
		}
		if s.Name == "execute" {
			exec = s.DurMs
		}
	}
	if exec <= 0 {
		t.Fatalf("execute span = %v, want > 0", exec)
	}
	// Without a caller ID, Do assigns one.
	resp, err = m.Do(context.Background(), &Request{Rows: [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("generated trace id = %q", resp.TraceID)
	}
}

// TestHTTPTraceEndToEnd exercises the trace surface over HTTP: the
// response and header echo a caller-supplied trace ID, the response spans
// include admission plus the five scheduler stages, the request shows up
// in /debug/traces, and a slow-threshold server logs the breakdown.
func TestHTTPTraceEndToEnd(t *testing.T) {
	pol := Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}
	cfg := testConfig(t)
	reg := NewRegistry(pol)
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	srv := NewServerOpts(reg, "127.0.0.1:0", ServerOptions{
		Pprof:       true,
		SlowRequest: time.Nanosecond, // everything is slow: force the log path
		Logger:      slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); reg.Close() })

	row := make([]float64, m.InputWidth())
	body, _ := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{row}})
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/infer", bytes.NewReader(body))
	hreq.Header.Set(obs.HeaderTraceID, "feedface00000000feedface00000000")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hresp.StatusCode, raw)
	}
	if got := hresp.Header.Get(obs.HeaderTraceID); got != "feedface00000000feedface00000000" {
		t.Fatalf("trace header = %q", got)
	}
	var ir InferResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TraceID != "feedface00000000feedface00000000" {
		t.Fatalf("body trace id = %q", ir.TraceID)
	}
	wantSpans := []string{"admission", "queue", "assemble", "lease", "execute", "deliver"}
	if len(ir.Spans) != len(wantSpans) {
		t.Fatalf("spans = %+v, want %v", ir.Spans, wantSpans)
	}
	for i, sp := range ir.Spans {
		if sp.Name != wantSpans[i] {
			t.Fatalf("span %d = %q, want %q", i, sp.Name, wantSpans[i])
		}
	}

	// The request is browsable in the ring.
	dresp, err := http.Get(ts.URL + "/debug/traces?n=4")
	if err != nil {
		t.Fatal(err)
	}
	draw, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	var view struct {
		Total   uint64       `json:"total"`
		Recent  []*obs.Trace `json:"recent"`
		Slowest []*obs.Trace `json:"slowest"`
	}
	if err := json.Unmarshal(draw, &view); err != nil {
		t.Fatalf("bad /debug/traces json: %v\n%s", err, draw)
	}
	if view.Total == 0 || len(view.Recent) == 0 {
		t.Fatalf("trace ring empty: %s", draw)
	}
	if view.Recent[0].ID != ir.TraceID || view.Recent[0].Status != http.StatusOK {
		t.Fatalf("ring head = %+v", view.Recent[0])
	}

	// Slow log fired with trace correlation.
	if logged := logBuf.String(); !strings.Contains(logged, "slow request") ||
		!strings.Contains(logged, ir.TraceID) || !strings.Contains(logged, "execute=") {
		t.Fatalf("slow log missing fields:\n%s", logged)
	}

	// pprof mounted (opt-in was set).
	presp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", presp.StatusCode)
	}

	// pprof NOT mounted on a default server.
	plain := NewServer(reg, "127.0.0.1:0")
	ts2 := httptest.NewServer(plain.Handler())
	defer ts2.Close()
	p2, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	p2.Body.Close()
	if p2.StatusCode == http.StatusOK {
		t.Fatal("pprof exposed without opt-in")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent slog writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// hostileTraceIDs is what a client may put in X-Radix-Trace-Id and
// whether the tier honours it (at most 64 bytes of [0-9A-Za-z_-]).
var hostileTraceIDs = []struct {
	name, in string
	honoured bool
}{
	{"empty", "", false},
	{"32 hex", "feedface00000000feedface00000000", true},
	{"64 bytes", strings.Repeat("aB3_-xyz", 8), true},
	{"65 bytes", strings.Repeat("a", 65), false},
	{"space", "cafe cafe", false},
	{"quote", `cafe"cafe`, false},
	{"newline", "cafe\ncafe", false},
	{"non-ASCII", "café0000", false},
}

// TestTraceIDBoundedAtTheEdge sends client-chosen trace IDs: the
// response header and body echo the honoured ID or a freshly minted
// 32-hex one, and the trace ring never retains a rejected string.
func TestTraceIDBoundedAtTheEdge(t *testing.T) {
	s, m, _ := newTestServer(t, Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7}, 1)
	body, _ := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{make([]float64, m.InputWidth())}})
	for _, tc := range hostileTraceIDs {
		// Straight into the handler: net/http's client refuses to send
		// some of these, a raw connection would not.
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		if tc.in != "" {
			req.Header[obs.HeaderTraceID] = []string{tc.in}
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		var ir InferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		got := rec.Header().Get(obs.HeaderTraceID)
		if ir.TraceID != got {
			t.Errorf("%s: body trace ID %q, header %q", tc.name, ir.TraceID, got)
		}
		if tc.honoured && got != tc.in {
			t.Errorf("%s: echoed %q, want the incoming ID honoured", tc.name, got)
		}
		if !tc.honoured && (got == tc.in || len(got) != 32 || strings.Trim(got, "0123456789abcdef") != "") {
			t.Errorf("%s: echoed %q, want a freshly minted 32-hex ID", tc.name, got)
		}
		if !tc.honoured && tc.in != "" && s.Traces().Find(tc.in) != nil {
			t.Errorf("%s: the trace ring retained the rejected ID", tc.name)
		}
	}
	if n := s.Traces().Len(); n != uint64(len(hostileTraceIDs)) {
		t.Errorf("ring holds %d traces, want one per request (%d)", n, len(hostileTraceIDs))
	}
}

// TestTraceFiledBeforeReplyEnds pins the trace retention contract: a
// reply's trace is in the ring by the time the reply's last byte arrives,
// so a /debug/traces?trace=<id> read right after the reply finds it, with
// the reply's status. It covers a 200 whose 512-wide row makes the reply
// chunked (written in part before the handler returns), a 429 and a 404,
// a few rounds each.
func TestTraceFiledBeforeReplyEnds(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Policy{MaxBatch: 1, QueueDepth: 1})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg, "127.0.0.1:0").Handler())
	defer ts.Close()
	row := make([]float64, m.InputWidth())
	for i := range row {
		row[i] = float64(i%7) / 3 // outputs with many digits: a reply of ≈ 10 KB
	}
	for range 5 {
		resp := traceRoundTrip(t, ts.URL, http.StatusOK, InferRequest{Model: "m", Inputs: [][]float64{row}})
		if resp.ContentLength != -1 {
			t.Fatalf("200 reply carried Content-Length %d, want a chunked reply", resp.ContentLength)
		}
		traceRoundTrip(t, ts.URL, http.StatusNotFound, InferRequest{Model: "nope", Inputs: [][]float64{row}})

		// A 429: one row holds the collector, blocked on the engine the
		// test holds, and one fills the one-slot queue.
		eng := m.Lease()
		accepted := m.Metrics().Snapshot().Accepted
		var wg sync.WaitGroup
		for queued := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := doRow(m, row, make([]float64, m.OutputWidth())); err != nil {
					t.Error(err)
				}
			}()
			accepted++
			for deadline := time.Now().Add(5 * time.Second); m.Metrics().Snapshot().Accepted != accepted || m.bat.depth() != queued; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					m.Release(eng)
					t.Fatalf("row %d never reached the batcher", queued)
				}
			}
		}
		traceRoundTrip(t, ts.URL, http.StatusTooManyRequests, InferRequest{Model: "m", Inputs: [][]float64{row}})
		m.Release(eng)
		wg.Wait()
	}
}

// traceRoundTrip posts req, reads the whole reply, checks its status, and
// at once looks its trace up by ID: it must be retained with that status.
func traceRoundTrip(t *testing.T, url string, status int, req InferRequest) *http.Response {
	t.Helper()
	resp, _ := postInfer(t, url, req)
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d", resp.StatusCode, status)
	}
	id := resp.Header.Get(obs.HeaderTraceID)
	tr, err := http.Get(url + "/debug/traces?trace=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var view struct {
		Trace *obs.Trace `json:"trace"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if tr.StatusCode != http.StatusOK || view.Trace == nil || view.Trace.Status != status {
		t.Fatalf("trace %s read right after its %d reply: lookup status %d, trace %+v", id, status, tr.StatusCode, view.Trace)
	}
	return resp
}
