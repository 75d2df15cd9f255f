package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// --- Ring ---

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("model-%d", i)
	}
	return keys
}

// TestRingStability is the consistent-hashing property itself: adding one
// node to an N-node ring moves only ~1/(N+1) of the keys, all of them to
// the new node.
func TestRingStability(t *testing.T) {
	const nodes, keys = 8, 2000
	r := NewRing(0)
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("10.0.0.%d:8080", i))
	}
	if r.Len() != nodes {
		t.Fatalf("ring has %d nodes, want %d", r.Len(), nodes)
	}
	before := make(map[string]string, keys)
	perNode := make(map[string]int)
	for _, k := range ringKeys(keys) {
		owner := r.Owners(k, 1)[0]
		before[k] = owner
		perNode[owner]++
	}
	// Every node must own a nontrivial keyspace share: with 128 vnodes the
	// shares concentrate near 1/N, so a floor at 1/(4N) has huge margin yet
	// still catches a broken point distribution.
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("10.0.0.%d:8080", i)
		if perNode[id] < keys/(4*nodes) {
			t.Errorf("node %s owns only %d/%d keys", id, perNode[id], keys)
		}
	}

	r.Add("10.0.0.99:8080")
	moved := 0
	for k, was := range before {
		now := r.Owners(k, 1)[0]
		if now != was {
			if now != "10.0.0.99:8080" {
				t.Fatalf("key %s moved %s→%s, not to the new node", k, was, now)
			}
			moved++
		}
	}
	// Expectation is keys/(nodes+1) ≈ 222; allow generous slack both ways.
	if moved == 0 || moved > 2*keys/(nodes+1) {
		t.Fatalf("adding a node moved %d/%d keys, want ≈%d", moved, keys, keys/(nodes+1))
	}
}

func TestRingOwnersReplicaSets(t *testing.T) {
	r := NewRing(64).Add("a:1", "b:1", "c:1")
	for _, k := range ringKeys(100) {
		owners := r.Owners(k, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("key %s owners %v: want 2 distinct", k, owners)
		}
		// Deterministic: same key, same replica set, every time.
		again := r.Owners(k, 2)
		if owners[0] != again[0] || owners[1] != again[1] {
			t.Fatalf("key %s placement unstable: %v vs %v", k, owners, again)
		}
		// Asking for more replicas than nodes yields all nodes.
		if all := r.Owners(k, 10); len(all) != 3 {
			t.Fatalf("key %s Owners(10) = %v, want all 3 nodes", k, all)
		}
	}
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("Owners(0) = %v, want nil", got)
	}
	if got := NewRing(8).Owners("k", 1); len(got) != 0 {
		t.Fatal("empty ring returned an owner")
	}
}

// --- Backend set health ---

// flakyBackend is a /healthz endpoint whose health is a switch.
func flakyBackend(up *atomic.Bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !up.Load() {
			http.Error(w, `{"status":"sick"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.Health{Status: "ok", Models: 1})
	}))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBackendEjectionAndReadmission runs the real prober against a backend
// whose health is toggled: FailAfter consecutive failures must eject it,
// one good probe must re-admit it.
func TestBackendEjectionAndReadmission(t *testing.T) {
	var up atomic.Bool
	up.Store(true)
	ts := flakyBackend(&up)
	defer ts.Close()

	set, err := NewBackendSet([]string{ts.URL}, SetConfig{
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailAfter:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	set.Start()
	defer set.Stop()
	b := set.Backends()[0]

	waitFor(t, "first good probe", func() bool { return b.probes.Load() >= 1 })
	if !b.Healthy() {
		t.Fatal("healthy backend ejected")
	}
	up.Store(false)
	waitFor(t, "ejection", func() bool { return !b.Healthy() })
	if fails := b.consecFails.Load(); fails < 3 {
		t.Fatalf("ejected after %d consecutive failures, want ≥ 3", fails)
	}
	if set.HealthyCount() != 0 {
		t.Fatal("ejected backend still counted healthy")
	}
	if owners := set.Owners("anything", 2); len(owners) != 0 {
		t.Fatalf("ejected backend still owns keys: %v", owners)
	}
	up.Store(true)
	waitFor(t, "re-admission", func() bool { return b.Healthy() })
	if set.Owners("anything", 1)[0] != b {
		t.Fatal("re-admitted backend not routing")
	}
	st := b.Status()
	if st.ProbeFailures < 3 || st.Probes <= st.ProbeFailures || st.LastError == "" {
		t.Fatalf("probe accounting wrong: %+v", st)
	}
}

func TestNormalizeBackend(t *testing.T) {
	for _, tc := range []struct{ in, id, url string }{
		{"10.0.0.7:8080", "10.0.0.7:8080", "http://10.0.0.7:8080"},
		{"http://10.0.0.7:8080", "10.0.0.7:8080", "http://10.0.0.7:8080"},
		{"http://10.0.0.7:8080/", "10.0.0.7:8080", "http://10.0.0.7:8080"},
		{"https://gpu1:443", "gpu1:443", "https://gpu1:443"},
	} {
		id, url, err := normalizeBackend(tc.in)
		if err != nil || id != tc.id || url != tc.url {
			t.Errorf("normalizeBackend(%q) = (%q, %q, %v), want (%q, %q)", tc.in, id, url, err, tc.id, tc.url)
		}
	}
	for _, bad := range []string{"", "grpc://x:1", "http://", "http://a b:1"} {
		if _, _, err := normalizeBackend(bad); err == nil {
			t.Errorf("normalizeBackend(%q) accepted", bad)
		}
	}
	if _, err := NewBackendSet([]string{"a:1", "http://a:1"}, SetConfig{}); err == nil {
		t.Error("duplicate backend accepted")
	}
	if _, err := NewBackendSet(nil, SetConfig{}); err == nil {
		t.Error("empty backend set accepted")
	}
}

// --- Router over real radixserve backends ---

// testFleet is N in-process radixserve instances plus a router in front.
type testFleet struct {
	cfg    core.Config
	regs   map[string]*serve.Registry // backend id → registry
	srvs   map[string]*serve.Server
	router *Router
	url    string
}

// startFleet boots n empty radixserve backends and a router over them,
// then registers each of models on its ring owners (Replicas each).
func startFleet(t *testing.T, n int, models []string, setCfg SetConfig) *testFleet {
	return startFleetOpts(t, n, models, setCfg, nil)
}

// startFleetOpts is startFleet with a hook to adjust the router config
// (e.g. arming SLO objectives) before the router is built.
func startFleetOpts(t *testing.T, n int, models []string, setCfg SetConfig, mutate func(*RouterConfig)) *testFleet {
	t.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{cfg: cfg, regs: make(map[string]*serve.Registry), srvs: make(map[string]*serve.Server)}
	pol := serve.Policy{MaxBatch: 8, MaxLatency: time.Millisecond}
	var addrs []string
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry(pol)
		srv := serve.NewServer(reg, "127.0.0.1:0")
		addr, err := srv.Start()
		if err != nil {
			t.Fatal(err)
		}
		f.regs[addr] = reg
		f.srvs[addr] = srv
		addrs = append(addrs, addr)
	}
	t.Cleanup(func() {
		for _, srv := range f.srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx)
			cancel()
		}
	})
	rcfg := RouterConfig{Addr: "127.0.0.1:0", Backends: addrs, Replicas: 2, Set: setCfg}
	if mutate != nil {
		mutate(&rcfg)
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		for _, id := range rt.Placement(model) {
			if _, err := f.regs[id].Register(model, cfg, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	url, err := rt.Start()
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.url = "http://" + url
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return f
}

func (f *testFleet) post(t *testing.T, model string, rows [][]float64) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(serve.InferRequest{Model: model, Inputs: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRouterRoutesBitIdentical sends rows for several models through the
// router and checks (a) answers come from a ring owner of each model and
// (b) outputs are bit-identical to a direct engine over the same config.
func TestRouterRoutesBitIdentical(t *testing.T) {
	models := []string{"alpha", "beta", "gamma"}
	f := startFleet(t, 3, models, SetConfig{ProbeInterval: time.Hour})
	eng, err := infer.FromConfig(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(8, 16, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		owners := f.router.Placement(model)
		for r := 0; r < in.Rows(); r++ {
			resp, body := f.post(t, model, [][]float64{in.RowSlice(r)})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s row %d: status %d: %s", model, r, resp.StatusCode, body)
			}
			if by := resp.Header.Get("X-Radix-Backend"); by != owners[0] {
				t.Fatalf("%s served by %s, want primary owner %s", model, by, owners[0])
			}
			var got serve.InferResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			row, err := sparse.DenseFromSlice(1, 16, in.RowSlice(r))
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Infer(row)
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range got.Outputs[0] {
				if v != want.Data()[c] {
					t.Fatalf("%s row %d col %d: %v != %v (not bit-identical)", model, r, c, v, want.Data()[c])
				}
			}
		}
	}
	// Unknown model: every owner is alive but answers 404, so the router
	// reports the deterministic client error (404), not a retryable 503.
	resp, body := f.post(t, "ghost", [][]float64{in.RowSlice(0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost model: status %d, want 404", resp.StatusCode)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Model != "ghost" {
		t.Fatalf("ghost 404 body %s (err %v): model name missing", body, err)
	}
	// But when a model's intended owners are ejected and the 404s come from
	// healthy ring successors standing in for them, the model may merely be
	// unreachable — that must stay a retryable 503, not a 404.
	for _, id := range f.router.Placement("alpha") {
		b, _ := f.router.Set().Backend(id)
		b.healthy.Store(false)
	}
	resp, _ = f.post(t, "alpha", [][]float64{in.RowSlice(0)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("model with ejected owners: status %d, want 503", resp.StatusCode)
	}
	for _, id := range f.router.Placement("alpha") {
		b, _ := f.router.Set().Backend(id)
		b.healthy.Store(true)
	}
	// Malformed and empty-model requests are rejected at the router.
	r2, err := http.Post(f.url+"/v1/infer", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON: status %d", r2.StatusCode)
	}
	resp, _ = f.post(t, "", [][]float64{in.RowSlice(0)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty model: status %d", resp.StatusCode)
	}
}

// TestRouterFailover kills a model's primary owner and checks the request
// stream continues unbroken on the replica — the core resilience claim.
func TestRouterFailover(t *testing.T) {
	f := startFleet(t, 3, []string{"m"}, SetConfig{ProbeInterval: time.Hour, FailAfter: 2})
	owners := f.router.Placement("m")
	in, err := dataset.SparseBatch(4, 16, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	row := [][]float64{in.RowSlice(0)}
	resp, body := f.post(t, "m", row)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Radix-Backend") != owners[0] {
		t.Fatalf("pre-kill: status %d via %s: %s", resp.StatusCode, resp.Header.Get("X-Radix-Backend"), body)
	}
	var want serve.InferResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}

	// Kill the primary. Every subsequent request must keep succeeding, now
	// answered by the replica, with identical outputs.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	f.srvs[owners[0]].Shutdown(ctx)
	cancel()
	for i := 0; i < 5; i++ {
		resp, body = f.post(t, "m", row)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if by := resp.Header.Get("X-Radix-Backend"); by != owners[1] {
			t.Fatalf("post-kill request %d answered by %s, want replica %s", i, by, owners[1])
		}
		var got serve.InferResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		for c, v := range got.Outputs[0] {
			if v != want.Outputs[0][c] {
				t.Fatal("replica output diverged from primary")
			}
		}
	}
	if f.router.met.failovers.Load() == 0 {
		t.Fatal("no failovers recorded")
	}
	// The forwarding failures alone (FailAfter=2) must have ejected the
	// dead primary without any probe ticking (interval is an hour).
	b, _ := f.router.Set().Backend(owners[0])
	waitFor(t, "passive ejection", func() bool { return !b.Healthy() })
	// Once ejected, the replica is the ring walk's first healthy owner:
	// requests stop paying the failed connection attempt.
	if got := f.router.Set().Owners("m", 2); len(got) == 0 || got[0].ID() != owners[1] {
		t.Fatalf("owners after ejection: %v", got)
	}
}

// TestRouterRelaysRequestTooLarge pins that a backend's 413 — a request
// with more rows than its class queue holds, which every replica would
// refuse alike — is relayed as it came, after one attempt, with the model
// and class the backend named.
func TestRouterRelaysRequestTooLarge(t *testing.T) {
	f := startFleet(t, 2, []string{"m"}, SetConfig{ProbeInterval: time.Hour})
	owners := f.router.Placement("m")
	rows := make([][]float64, 257) // the fleet's class queues hold 256
	for i := range rows {
		rows[i] = make([]float64, 16)
	}
	resp, body := f.post(t, "m", rows)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Model != "m" || e.Class != serve.ClassInteractive {
		t.Fatalf("413 body %s: want model %q and class %q (err %v)", body, "m", serve.ClassInteractive, err)
	}
	if by := resp.Header.Get("X-Radix-Backend"); by != owners[0] {
		t.Fatalf("413 relayed from %q, want the first owner %q", by, owners[0])
	}
	if n := f.router.met.failovers.Load(); n != 0 {
		t.Fatalf("%d failovers for a 413, want none", n)
	}
	for _, id := range owners {
		b, _ := f.router.Set().Backend(id)
		want := int64(0)
		if id == owners[0] {
			want = 1
		}
		if got := b.forwarded.Load(); got != want {
			t.Fatalf("backend %s relayed %d replies, want %d", id, got, want)
		}
		m, _ := f.regs[id].Model("m")
		if s := m.Metrics().Snapshot(); s.Accepted != 0 || s.Rejected != 0 {
			t.Fatalf("backend %s counted the 413 request: %+v", id, s)
		}
	}
}

// TestRouterMergedModelsAndHealthz checks the fan-out endpoints: the model
// union with placement, and per-backend health reporting.
func TestRouterMergedModelsAndHealthz(t *testing.T) {
	models := []string{"m0", "m1", "m2", "m3"}
	f := startFleet(t, 3, models, SetConfig{ProbeInterval: time.Hour})
	resp, err := http.Get(f.url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var merged ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(merged.Models) != len(models) {
		t.Fatalf("merged %d models, want %d: %+v", len(merged.Models), len(models), merged.Models)
	}
	for i, m := range merged.Models {
		if m.Name != models[i] { // sorted by name
			t.Fatalf("model %d = %q, want %q", i, m.Name, models[i])
		}
		if got := merged.Placement[m.Name]; len(got) != 2 {
			t.Fatalf("placement[%s] = %v, want 2 owners", m.Name, got)
		}
	}
	if merged.Backends != 3 || merged.Healthy != 3 || merged.Replicas != 2 {
		t.Fatalf("fleet summary wrong: %+v", merged)
	}

	resp, err = http.Get(f.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || len(hz.Backends) != 3 {
		t.Fatalf("healthz = %+v", hz)
	}
}

// TestRouterMergedMetrics checks the fleet-wide Prometheus merge: router
// series present, backend series labeled, HELP/TYPE not duplicated.
func TestRouterMergedMetrics(t *testing.T) {
	f := startFleet(t, 2, []string{"m"}, SetConfig{ProbeInterval: time.Hour})
	in, err := dataset.SparseBatch(1, 16, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := f.post(t, "m", [][]float64{in.RowSlice(0)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(f.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	owners := f.router.Placement("m")
	for _, want := range []string{
		"radixrouter_requests_total 1",
		"radixrouter_failovers_total 0",
		fmt.Sprintf("radixrouter_backend_healthy{backend=%q} 1", owners[0]),
		fmt.Sprintf("radixrouter_backend_forwarded_total{backend=%q} 1", owners[0]),
		// The backend's own serving counters, now labeled with its id.
		fmt.Sprintf("radixserve_rows_completed_total{model=\"m\",backend=%q} 1", owners[0]),
		fmt.Sprintf("radixserve_uptime_seconds{backend=%q}", owners[0]),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged metrics missing %q", want)
		}
	}
	if got := strings.Count(text, "# TYPE radixserve_rows_completed_total"); got != 1 {
		t.Errorf("TYPE header for radixserve_rows_completed_total appears %d times, want 1 (dedup)", got)
	}
	if got := strings.Count(text, "# TYPE radixrouter_requests_total"); got != 1 {
		t.Errorf("TYPE header for radixrouter_requests_total appears %d times, want 1", got)
	}
}

// TestRouter429Backoff puts a fake saturated backend behind the router:
// the first attempt 429s with Retry-After, the retry succeeds.
func TestRouter429Backoff(t *testing.T) {
	var calls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(serve.Health{Status: "ok"})
		case "/v1/infer":
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "queue full", Model: "m"})
				return
			}
			json.NewEncoder(w).Encode(serve.InferResponse{Model: "m", Rows: 1, Outputs: [][]float64{{1}}})
		}
	}))
	defer backend.Close()
	rt, err := NewRouter(RouterConfig{
		Backends:   []string{backend.URL},
		MaxBackoff: 20 * time.Millisecond, // don't sleep the full advertised second in tests
		Set:        SetConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(`{"model":"m","inputs":[[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after backoff retry", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("no backoff observed (%v)", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("backend called %d times, want 2", calls.Load())
	}
	if rt.met.backoffs.Load() != 1 {
		t.Fatalf("backoffs = %d, want 1", rt.met.backoffs.Load())
	}
}

// relabel parses exposition text and re-emits it backend-labelled, the
// way the router's merged /metrics relays a backend scrape.
func relabel(text, backend string) string {
	var w obs.Writer
	w.Relabel(obs.ParseScrape(text), "backend", backend)
	return strings.TrimSuffix(string(w.Bytes()), "\n")
}

func TestInjectBackendLabel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"radixserve_uptime_seconds 3.5", `radixserve_uptime_seconds{backend="b:1"} 3.5`},
		{`x_total{model="m"} 7`, `x_total{model="m",backend="b:1"} 7`},
		{`x{a="s p"} 1`, `x{a="s p",backend="b:1"} 1`},
		// The value text is relayed, not re-rendered: %g and %d both survive.
		{`x_total{model="m"} 1e+06`, `x_total{model="m",backend="b:1"} 1e+06`},
		{`x_total{model="m"} 1000000`, `x_total{model="m",backend="b:1"} 1000000`},
		// The exposition format's optional trailing timestamp.
		{"x_total 1027 1712345678000", `x_total{backend="b:1"} 1027 1712345678000`},
		{`x_total{model="m"} 7 1712345678000`, `x_total{model="m",backend="b:1"} 7 1712345678000`},
		// A client-chosen model name may hold anything: the label block is
		// found quote-aware, never by searching for a brace or " # ".
		{`x_total{model="a # {b}=\"c\\"} 7`, `x_total{model="a # {b}=\"c\\",backend="b:1"} 7`},
		// A line outside the parser's grammar — an empty label block, which
		// radixserve never writes, or plain junk — gets no label but is
		// relayed as it came, after the backend's series: it shows on the
		// merged page instead of vanishing from it.
		{"x_total{} 7\njunk\nx 1", "x{backend=\"b:1\"} 1\nx_total{} 7\njunk"},
	} {
		if got := relabel(tc.in, "b:1"); got != tc.want {
			t.Errorf("relabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func BenchmarkRingOwners(b *testing.B) {
	r := NewRing(0)
	for i := 0; i < 16; i++ {
		r.Add(fmt.Sprintf("10.0.0.%d:8080", i))
	}
	keys := ringKeys(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Owners(keys[i%len(keys)], 2) == nil {
			b.Fatal("no owners")
		}
	}
}
