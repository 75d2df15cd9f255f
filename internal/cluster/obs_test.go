package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
)

func scrapeText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// mergedHist reads one histogram family out of a scrape, every series
// passing the label filter merged into one.
func mergedHist(sc *obs.Scrape, f *obs.Family, where ...obs.Label) (obs.ScrapedHist, bool) {
	hs := obs.MergeHist(f, nil, where, sc)
	if len(hs) == 0 {
		return obs.ScrapedHist{}, false
	}
	return hs[0].Hist, true
}

// TestRouterFleetMergedHistograms drives real traffic through a 2-backend
// fleet and checks the router's bucket-wise histogram merge: the
// radixrouter_model_* families must reconstruct the fleet-wide
// distribution exactly — counts equal to the sum of the per-backend
// exports, on the shared le ladder.
func TestRouterFleetMergedHistograms(t *testing.T) {
	f := startFleet(t, 2, []string{"m"}, SetConfig{ProbeInterval: time.Hour})
	in, err := dataset.SparseBatch(1, 16, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if resp, body := f.post(t, "m", [][]float64{in.RowSlice(0)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	text := scrapeText(t, f.url+"/metrics")
	sc := obs.ParseScrape(text)
	if err := sc.Check(); err != nil {
		t.Fatalf("router exposition: %v", err)
	}
	model := obs.Label{Name: "model", Value: "m"}

	lat, ok := mergedHist(sc, MetricModelRequestLatency, model)
	if !ok {
		t.Fatal("merged request latency histogram missing from router /metrics")
	}
	if lat.Count != n {
		t.Fatalf("merged latency count = %d, want %d", lat.Count, n)
	}
	if len(lat.Les) == 0 || lat.Les[0] != 4.096e-06 {
		t.Fatalf("merged ladder first le = %v, want 4.096e-06", lat.Les)
	}
	if lat.Cum[len(lat.Cum)-1] != lat.Count {
		t.Fatalf("merged cumulative tops at %d, want count %d", lat.Cum[len(lat.Cum)-1], lat.Count)
	}
	if p99 := lat.Quantile(0.99); p99 <= 0 || p99 > 20 {
		t.Fatalf("merged latency p99 = %v s, implausible", p99)
	}

	// The merge must equal the sum of the per-backend exports. The raw
	// backend series are also re-emitted under the same family name with
	// a backend label, so restrict the direct sum to per-backend scrapes.
	var direct uint64
	for id, srv := range f.srvs {
		_ = srv
		bt := obs.ParseScrape(scrapeText(t, "http://"+id+"/metrics"))
		if h, ok := mergedHist(bt, serve.MetricRequestLatency, model); ok {
			direct += h.Count
		}
	}
	if direct != n {
		t.Fatalf("backend scrapes sum to %d requests, want %d", direct, n)
	}

	// Per-class queue wait merged by model×class.
	wait, ok := mergedHist(sc, MetricModelQueueWait, model, obs.Label{Name: "class", Value: serve.ClassInteractive})
	if !ok {
		t.Fatal("merged queue wait histogram missing")
	}
	if wait.Count != n {
		t.Fatalf("merged queue wait count = %d, want %d", wait.Count, n)
	}

	// Engine execute time merged by model.
	exec, ok := mergedHist(sc, fleetHistograms[2].dst, model)
	if !ok {
		t.Fatal("merged execute histogram missing")
	}
	if exec.Count == 0 {
		t.Fatal("merged execute histogram empty")
	}

	// Per-backend attempt latency: every request was answered by exactly
	// one backend, so the fleet-aggregate attempt count equals n.
	att, ok := mergedHist(sc, metricAttemptLatency)
	if !ok {
		t.Fatal("backend attempt latency histogram missing")
	}
	if att.Count != n {
		t.Fatalf("attempt latency count = %d, want %d", att.Count, n)
	}

	// Router runtime gauges ride along.
	for _, want := range []string{"radixrouter_goroutines ", "radixrouter_heap_alloc_bytes "} {
		if !strings.Contains(text, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

type routerSyncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *routerSyncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *routerSyncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterTraceEndToEnd checks the router edge of the tracing contract:
// an incoming X-Radix-Trace-Id is forwarded to the backend, echoed on the
// response, retained in /debug/traces with route and attempt spans, and
// correlated in the slow-request log.
func TestRouterTraceEndToEnd(t *testing.T) {
	const traceID = "feedface00000000feedface00000000"
	var gotForwarded atomicString
	backend := fakeBackend(t, []string{"m"}, func(w http.ResponseWriter, r *http.Request) {
		gotForwarded.Store(r.Header.Get(obs.HeaderTraceID))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.InferResponse{Model: "m", Rows: 1, Outputs: [][]float64{{1}}})
	})
	var logBuf routerSyncBuffer
	rt, err := NewRouter(RouterConfig{
		Backends:    []string{backend.URL},
		Replicas:    1,
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewTextHandler(&logBuf, nil)),
		Set:         SetConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(serve.InferRequest{Model: "m", Inputs: [][]float64{{1}}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceID, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.HeaderTraceID); got != traceID {
		t.Fatalf("response trace header = %q, want %q", got, traceID)
	}
	if got := gotForwarded.Load(); got != traceID {
		t.Fatalf("backend received trace header %q, want %q", got, traceID)
	}

	// The trace is browsable with route + attempt spans, backend and
	// status attributed.
	var view struct {
		Total  uint64       `json:"total"`
		Recent []*obs.Trace `json:"recent"`
	}
	tresp, err := http.Get(ts.URL + "/debug/traces?n=4")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(tresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if view.Total == 0 || len(view.Recent) == 0 {
		t.Fatalf("debug traces empty: %+v", view)
	}
	var found *obs.Trace
	for _, tr := range view.Recent {
		if tr.ID == traceID {
			found = tr
		}
	}
	if found == nil {
		t.Fatalf("trace %s not retained: %+v", traceID, view.Recent)
	}
	if found.Status != http.StatusOK || found.Model != "m" || found.Backend == "" {
		t.Fatalf("trace attribution wrong: %+v", found)
	}
	names := make(map[string]bool)
	hasAttempt := false
	for _, s := range found.Spans {
		names[s.Name] = true
		if strings.HasPrefix(s.Name, "attempt:") {
			hasAttempt = true
		}
	}
	if !names["route"] || !hasAttempt {
		t.Fatalf("trace spans missing route/attempt: %+v", found.Spans)
	}

	// Slow-request log correlates by trace ID and carries the breakdown.
	logged := logBuf.String()
	if !strings.Contains(logged, "slow request") || !strings.Contains(logged, traceID) {
		t.Fatalf("slow-request log missing trace correlation: %s", logged)
	}

	// A request without a trace header gets a generated ID echoed back.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.HeaderTraceID); len(got) != 32 {
		t.Fatalf("generated trace ID = %q, want 32 hex chars", got)
	}
}

type atomicString struct {
	mu sync.Mutex
	s  string
}

func (a *atomicString) Store(s string) { a.mu.Lock(); a.s = s; a.mu.Unlock() }
func (a *atomicString) Load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.s }

// TestRouterPprofOptIn checks that profiling endpoints exist only when
// RouterConfig.Pprof is set.
func TestRouterPprofOptIn(t *testing.T) {
	backend := fakeBackend(t, nil, func(w http.ResponseWriter, r *http.Request) {})
	for _, tc := range []struct {
		pprof  bool
		wantOK bool
	}{{false, false}, {true, true}} {
		rt, err := NewRouter(RouterConfig{
			Backends: []string{backend.URL},
			Pprof:    tc.pprof,
			Set:      SetConfig{ProbeInterval: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ts.Close()
		if ok := resp.StatusCode == http.StatusOK; ok != tc.wantOK {
			t.Errorf("pprof=%v: cmdline status %d, want ok=%v", tc.pprof, resp.StatusCode, tc.wantOK)
		}
	}
}

// TestRouterTraceIDBoundedAtTheEdge sends client-chosen trace IDs through
// the router: an ID of at most 64 bytes of [0-9A-Za-z_-] is honoured on
// both tiers, anything else is replaced by a freshly minted 32-hex ID
// before it is forwarded, echoed or retained.
func TestRouterTraceIDBoundedAtTheEdge(t *testing.T) {
	f := startFleet(t, 2, []string{"m"}, SetConfig{ProbeInterval: time.Hour})
	body, _ := json.Marshal(serve.InferRequest{Model: "m", Inputs: [][]float64{make([]float64, 16)}})
	cases := []struct {
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
	for _, tc := range cases {
		// Straight into the handler: net/http's client refuses to send
		// some of these, a raw connection would not.
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		if tc.in != "" {
			req.Header[obs.HeaderTraceID] = []string{tc.in}
		}
		rec := httptest.NewRecorder()
		f.router.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
		var ir serve.InferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		got := rec.Header().Get(obs.HeaderTraceID)
		if ir.TraceID != got {
			t.Errorf("%s: backend answered under trace ID %q, router echoed %q", tc.name, ir.TraceID, got)
		}
		if tc.honoured && got != tc.in {
			t.Errorf("%s: echoed %q, want the incoming ID honoured", tc.name, got)
		}
		if !tc.honoured && (got == tc.in || len(got) != 32 || strings.Trim(got, "0123456789abcdef") != "") {
			t.Errorf("%s: echoed %q, want a freshly minted 32-hex ID", tc.name, got)
		}
		if !tc.honoured && tc.in != "" {
			rings := []*obs.TraceRing{f.router.Traces()}
			for _, srv := range f.srvs {
				rings = append(rings, srv.Traces())
			}
			for _, ring := range rings {
				if ring.Find(tc.in) != nil {
					t.Errorf("%s: a trace ring retained the rejected ID", tc.name)
				}
			}
		}
	}
	if n := f.router.Traces().Len(); n != uint64(len(cases)) {
		t.Errorf("router ring holds %d traces, want one per request (%d)", n, len(cases))
	}
}

// TestRouterTraceFiledBeforeReplyEnds pins the router's half of the trace
// retention contract: a reply's trace is in the ring by the time the
// reply's last byte arrives, so a /debug/traces?trace=<id> read right after
// the reply finds it, with the reply's status. It covers a relayed 200
// large enough to be chunked, a relayed 429 and the router's own 404, a
// few rounds each.
func TestRouterTraceFiledBeforeReplyEnds(t *testing.T) {
	big := serve.InferResponse{Model: "m", Rows: 1, Outputs: [][]float64{make([]float64, 512)}}
	for i := range big.Outputs[0] {
		big.Outputs[0][i] = float64(i) / 3
	}
	backend := fakeBackend(t, []string{"m", "busy"}, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		peek, _ := serve.PeekInferRequest(body)
		w.Header().Set("Content-Type", "application/json")
		switch peek.Model {
		case "m":
			json.NewEncoder(w).Encode(big)
		case "busy":
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "queue full", Model: peek.Model})
		default:
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "unknown model", Model: peek.Model})
		}
	})
	_, url := startRouter(t, RouterConfig{
		Addr:     "127.0.0.1:0",
		Backends: []string{backend.URL},
		Replicas: 1,
		Set:      SetConfig{ProbeInterval: time.Hour},
	})
	for range 5 {
		resp := routerTraceRoundTrip(t, url, http.StatusOK, "m")
		if resp.ContentLength != -1 {
			t.Fatalf("200 reply carried Content-Length %d, want a chunked reply", resp.ContentLength)
		}
		routerTraceRoundTrip(t, url, http.StatusTooManyRequests, "busy")
		routerTraceRoundTrip(t, url, http.StatusNotFound, "nope")
	}
}

// routerTraceRoundTrip posts one row for model, reads the whole reply,
// checks its status, and at once looks its trace up by ID: it must be
// retained with that status.
func routerTraceRoundTrip(t *testing.T, url string, status int, model string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(serve.InferRequest{Model: model, Inputs: [][]float64{{1}}})
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("%s: status %d, want %d", model, resp.StatusCode, status)
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
