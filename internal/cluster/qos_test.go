package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/serve"
)

// stubBackend is an httptest radixserve lookalike whose /v1/infer behavior
// is settable after the router has computed placement.
type stubBackend struct {
	srv   *httptest.Server
	id    string
	calls atomic.Int64
	infer atomic.Value // http.HandlerFunc
}

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	b := &stubBackend{}
	b.infer.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.InferResponse{Model: "m", Rows: 1, Outputs: [][]float64{{1}}})
	}))
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(serve.Health{Status: "ok"})
		case "/v1/infer":
			b.calls.Add(1)
			b.infer.Load().(http.HandlerFunc)(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	b.id = strings.TrimPrefix(b.srv.URL, "http://")
	t.Cleanup(b.srv.Close)
	return b
}

func postClass(t *testing.T, url, model, class string, deadlineMs float64) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(serve.InferRequest{
		Model: model, Class: class, DeadlineMs: deadlineMs, Inputs: [][]float64{{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	var raw json.RawMessage
	if dec.Decode(&raw) == nil {
		buf.Write(raw)
	}
	return resp, []byte(buf.String())
}

// TestClassHeadersForwardedWithRemainingBudget: the router forwards the
// peeked class verbatim as X-Radix-Class and the deadline as the REMAINING
// millisecond budget in X-Radix-Deadline-Ms — strictly less than the
// original budget, since routing itself burned some. The header carries
// microseconds and a first attempt leaves the router inside one, so the
// backend pushes back once, slowly: the retry's header is the one read.
func TestClassHeadersForwardedWithRemainingBudget(t *testing.T) {
	b := newStubBackend(t)
	var gotClass, gotDeadline atomic.Value
	b.infer.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotClass.Store(r.Header.Get(serve.HeaderClass))
		gotDeadline.Store(r.Header.Get(serve.HeaderDeadlineMs))
		if b.calls.Load() == 1 {
			time.Sleep(2 * time.Millisecond)
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(serve.InferResponse{Model: "m", Rows: 1, Outputs: [][]float64{{1}}, Class: "background"})
	}))
	rt, err := NewRouter(RouterConfig{
		Backends: []string{b.srv.URL}, Set: SetConfig{ProbeInterval: time.Hour},
		ClassRetries: map[string]int{"background": 2}, // one 429 wait allowed
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	const budgetMs = 5000
	resp, body := postClass(t, ts.URL, "m", "background", budgetMs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if c, _ := gotClass.Load().(string); c != "background" {
		t.Fatalf("backend saw class header %q, want background", c)
	}
	ds, _ := gotDeadline.Load().(string)
	rem, err := strconv.ParseFloat(ds, 64)
	if err != nil {
		t.Fatalf("deadline header %q unparseable: %v", ds, err)
	}
	if rem <= 0 || rem >= budgetMs {
		t.Fatalf("remaining budget %v ms, want in (0, %d)", rem, budgetMs)
	}
	// Unlabeled requests carry no class header.
	resp, _ = postClass(t, ts.URL, "m", "", 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unlabeled: status %d", resp.StatusCode)
	}
	if c, _ := gotClass.Load().(string); c != "" {
		t.Fatalf("unlabeled request grew a class header %q", c)
	}
	// Arbitrary client-chosen class strings must not mint new metric labels
	// (unbounded series cardinality): they bucket under "other".
	for _, junk := range []string{"vip-0001", "vip-0002"} {
		if resp, _ := postClass(t, ts.URL, "m", junk, 0); resp.StatusCode == 0 {
			t.Fatal("junk-class post failed")
		}
	}
	snap := rt.Metrics()
	if snap.ClassRequests["background"] != 1 || snap.ClassRequests["default"] != 1 || snap.ClassRequests["other"] != 2 {
		t.Fatalf("class request counters: %+v", snap.ClassRequests)
	}
	if _, minted := snap.ClassRequests["vip-0001"]; minted {
		t.Fatal("client-chosen class string minted a metric label")
	}
}

// TestClassRetryBudgetBackgroundNoFailover: with the model's primary
// answering 500, an interactive request fails over to the replica and
// succeeds, while a background request (attempt budget 1) gets no failover
// and the fleet error is relayed.
func TestClassRetryBudgetBackgroundNoFailover(t *testing.T) {
	b1, b2 := newStubBackend(t), newStubBackend(t)
	byID := map[string]*stubBackend{b1.id: b1, b2.id: b2}
	rt, err := NewRouter(RouterConfig{
		Backends: []string{b1.srv.URL, b2.srv.URL},
		Replicas: 2,
		Set:      SetConfig{ProbeInterval: time.Hour, FailAfter: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.Placement("m")
	primary, replica := byID[owners[0]], byID[owners[1]]
	primary.infer.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, body := postClass(t, ts.URL, "m", "interactive", 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive: status %d, want 200 via failover: %s", resp.StatusCode, body)
	}
	if by := resp.Header.Get("X-Radix-Backend"); by != replica.id {
		t.Fatalf("interactive answered by %s, want replica %s", by, replica.id)
	}
	if rt.Metrics().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", rt.Metrics().Failovers)
	}
	replicaCalls := replica.calls.Load()

	resp, body = postClass(t, ts.URL, "m", "background", 0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("background: status %d, want 503 (no failover budget): %s", resp.StatusCode, body)
	}
	if replica.calls.Load() != replicaCalls {
		t.Fatal("background request burned a failover attempt on the replica")
	}
	if rt.Metrics().Failovers != 1 {
		t.Fatalf("failovers = %d after background, want still 1", rt.Metrics().Failovers)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "1 replicas") {
		t.Fatalf("background error body %s (err %v), want the 1-replica budget named", body, err)
	}
}

// TestClass429BackoffSkippedForBackground: a backend 429 makes the router
// wait out Retry-After and retry for interactive traffic, but is relayed
// immediately for background (budget-1) traffic.
func TestClass429BackoffSkippedForBackground(t *testing.T) {
	b := newStubBackend(t)
	b.infer.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "queue full", Model: "m", Class: "background"})
	}))
	rt, err := NewRouter(RouterConfig{
		Backends:   []string{b.srv.URL},
		MaxBackoff: 30 * time.Millisecond,
		Set:        SetConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	start := time.Now()
	resp, _ := postClass(t, ts.URL, "m", "background", 0)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("background: status %d, want 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("background 429 relayed without Retry-After")
	}
	if b.calls.Load() != 1 {
		t.Fatalf("background: %d backend calls, want 1 (no backoff retry)", b.calls.Load())
	}
	if elapsed >= 30*time.Millisecond {
		t.Fatalf("background 429 took %v: the router slept a backoff it should skip", elapsed)
	}
	if rt.Metrics().Backoffs != 0 {
		t.Fatalf("backoffs = %d for background, want 0", rt.Metrics().Backoffs)
	}

	resp, _ = postClass(t, ts.URL, "m", "interactive", 0)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("interactive: status %d, want 429 after one backoff retry", resp.StatusCode)
	}
	if b.calls.Load() != 3 {
		t.Fatalf("interactive: %d total backend calls, want 3 (one backoff retry)", b.calls.Load())
	}
	if rt.Metrics().Backoffs != 1 {
		t.Fatalf("backoffs = %d, want 1", rt.Metrics().Backoffs)
	}
}

// TestClassDeadlineExpiredBeforeForward: a request arriving with an
// already-dead budget answers 504 — from the router without burning a
// forward, or from the backend's dequeue shed if the race goes the other
// way; either way the class is attributed.
func TestClassDeadlineExpiredBeforeForward(t *testing.T) {
	b := newStubBackend(t)
	rt, err := NewRouter(RouterConfig{Backends: []string{b.srv.URL}, Set: SetConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, body := postClass(t, ts.URL, "m", "batch", 0.000001)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if rt.Metrics().Deadlines == 0 && b.calls.Load() == 0 {
		t.Fatal("neither the router's deadline counter nor a backend call accounts for the 504")
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Class != "batch" {
		t.Fatalf("504 body %s: want class attribution (err %v)", body, err)
	}
}

// TestClass429BackoffRespectsDeadline: an interactive 429 whose Retry-After
// would sleep past the request's remaining budget answers 504 instead of
// sleeping.
func TestClass429BackoffRespectsDeadline(t *testing.T) {
	b := newStubBackend(t)
	b.infer.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "queue full", Model: "m"})
	}))
	rt, err := NewRouter(RouterConfig{
		Backends:   []string{b.srv.URL},
		MaxBackoff: time.Second,
		Set:        SetConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	start := time.Now()
	resp, _ := postClass(t, ts.URL, "m", "interactive", 50) // 50ms budget vs 1s Retry-After
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (backoff would outlive the budget)", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("router slept the full Retry-After (%v) past the deadline", elapsed)
	}
	if rt.Metrics().Deadlines == 0 {
		t.Fatal("deadline counter not incremented")
	}
}
