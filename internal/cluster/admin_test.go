package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

func TestRetryAfterParsing(t *testing.T) {
	const limit = time.Second
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"0", 0},
		{"1", time.Second},
		{"30", limit}, // over the cap
		// The overflow regression: delta-seconds large enough that
		// secs*time.Second wraps negative must still honor the cap, not
		// turn into a hot retry.
		{"9999999999999", limit},
		{fmt.Sprint(int64(1) << 62), limit},
		{"-5", 100 * time.Millisecond},   // malformed → default
		{"soon", 100 * time.Millisecond}, // malformed → default
	} {
		if got := retryAfter(tc.header, limit); got != tc.want {
			t.Errorf("retryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
	// HTTP-date form: a date in the past means "retry now", a near-future
	// date waits roughly until then, a far-future date hits the cap.
	if got := retryAfter(time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), limit); got != 0 {
		t.Errorf("past HTTP-date: %v, want 0", got)
	}
	if got := retryAfter(time.Now().Add(time.Hour).UTC().Format(http.TimeFormat), limit); got != limit {
		t.Errorf("far-future HTTP-date: %v, want cap %v", got, limit)
	}
	wait := retryAfter(time.Now().Add(3*time.Second).UTC().Format(http.TimeFormat), 10*time.Second)
	if wait <= time.Second || wait > 4*time.Second {
		t.Errorf("near-future HTTP-date: %v, want ~3s", wait)
	}
}

// fakeBackend is a scripted radixserve stand-in: healthy /healthz, an
// /v1/infer handler the test controls, and a static /v1/models listing.
func fakeBackend(t *testing.T, models []string, infer http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.Health{Status: "ok", Models: len(models)})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		infos := make([]serve.ModelInfo, len(models))
		for i, m := range models {
			infos[i] = serve.ModelInfo{Name: m}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string][]serve.ModelInfo{"models": infos})
	})
	mux.HandleFunc("POST /v1/infer", infer)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func startRouter(t *testing.T, cfg RouterConfig) (*Router, string) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, "http://" + addr
}

// TestClientDisconnectDoesNotEject is the ejection-storm regression test: a
// burst of clients abandoning slow requests must not count as backend
// failures. FailAfter is 1, so a single wrongly-charged cancellation would
// eject the only backend.
func TestClientDisconnectDoesNotEject(t *testing.T) {
	release := make(chan struct{})
	backend := fakeBackend(t, []string{"slow"}, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.InferResponse{Model: "slow", Rows: 1, Outputs: [][]float64{{1}}})
	})
	defer close(release)

	rt, url := startRouter(t, RouterConfig{
		Addr:     "127.0.0.1:0",
		Backends: []string{backend.Listener.Addr().String()},
		Replicas: 1,
		Set:      SetConfig{ProbeInterval: time.Hour, FailAfter: 1},
	})

	body, _ := json.Marshal(serve.InferRequest{Model: "slow", Inputs: [][]float64{{1}}})
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/infer", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatal("request unexpectedly completed before the client timeout")
		}
		cancel()
	}
	// Give the router's handler goroutines a beat to observe the
	// cancellations before asserting.
	time.Sleep(50 * time.Millisecond)
	b := rt.Set().Backends()[0]
	if !b.Healthy() {
		t.Fatal("client disconnects ejected a healthy backend")
	}
	if st := b.Status(); st.ConsecutiveFailures != 0 || st.Failed != 0 {
		t.Fatalf("client disconnects charged to the backend: %+v", st)
	}
}

// TestRouter429HugeRetryAfter: a backend advertising an absurd Retry-After
// must cost at most MaxBackoff before the second 429 is relayed — neither a
// hot retry (the overflow regression) nor a near-infinite wait.
func TestRouter429HugeRetryAfter(t *testing.T) {
	backend := fakeBackend(t, []string{"busy"}, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "9999999999999")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(serve.ErrorResponse{Error: "saturated", Model: "busy"})
	})
	const maxBackoff = 80 * time.Millisecond
	rt, url := startRouter(t, RouterConfig{
		Addr:       "127.0.0.1:0",
		Backends:   []string{backend.Listener.Addr().String()},
		Replicas:   1,
		MaxBackoff: maxBackoff,
		Set:        SetConfig{ProbeInterval: time.Hour},
	})

	body, _ := json.Marshal(serve.InferRequest{Model: "busy", Inputs: [][]float64{{1}}})
	start := time.Now()
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 relayed", resp.StatusCode)
	}
	if elapsed < maxBackoff/2 {
		t.Fatalf("second 429 after %v: backoff was not honored (hot retry)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("second 429 after %v: absurd Retry-After escaped the %v cap", elapsed, maxBackoff)
	}
	if got := rt.Metrics().Backoffs; got != 1 {
		t.Fatalf("backoffs = %d, want 1", got)
	}
}

// adminDo issues one control-plane request against the router.
func adminDo(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestAdminUnreachableBackendDemotesSuccess: when reload/unregister
// discovery cannot inventory a backend, the verb still runs on the
// reachable hosts but the response is demoted to 502 naming the blind
// spot — that backend may rejoin still holding a stale copy, and the
// operator must know the operation did not provably reach the whole
// fleet.
func TestAdminUnreachableBackendDemotesSuccess(t *testing.T) {
	deleted := false
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.Health{Status: "ok", Models: 1})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string][]serve.ModelInfo{"models": {{Name: "m"}}})
	})
	mux.HandleFunc("DELETE /v1/models/m", func(w http.ResponseWriter, r *http.Request) {
		deleted = true
		json.NewEncoder(w).Encode(serve.AdminResponse{Model: "m", Status: "unregistered"})
	})
	alive := httptest.NewServer(mux)
	t.Cleanup(alive.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.Listener.Addr().String()
	dead.Close() // port now refuses connections

	rt, url := startRouter(t, RouterConfig{
		Addr:     "127.0.0.1:0",
		Backends: []string{alive.Listener.Addr().String(), deadAddr},
		Replicas: 2,
		Set:      SetConfig{ProbeInterval: time.Hour},
	})
	_ = rt
	code, body := adminDo(t, http.MethodDelete, url+"/v1/models/m", nil)
	if code != http.StatusBadGateway {
		t.Fatalf("unregister with a blind backend: status %d, want 502 (%s)", code, body)
	}
	var fan AdminFanoutResponse
	if err := json.Unmarshal(body, &fan); err != nil {
		t.Fatal(err)
	}
	if len(fan.Unreachable) != 1 || fan.Unreachable[0] != deadAddr {
		t.Fatalf("unreachable = %v, want [%s]", fan.Unreachable, deadAddr)
	}
	if !deleted {
		t.Fatal("reachable host was not unregistered")
	}
	if len(fan.Results) != 1 || fan.Results[0].Status != http.StatusOK {
		t.Fatalf("results = %+v", fan.Results)
	}
}

// TestRouterAdminFanout drives the fleet control plane end to end over
// real radixserve backends: register lands the model on exactly its
// ring-intended replicas, routed inference serves it bit-identically,
// reload bumps every copy's generation, unregister removes every copy and
// the router then answers 404.
func TestRouterAdminFanout(t *testing.T) {
	f := startFleet(t, 3, nil, SetConfig{ProbeInterval: time.Hour})
	cfgJSON, err := graphio.MarshalConfig(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	regBody, err := json.Marshal(serve.RegisterRequest{Name: "live", Config: cfgJSON, Engines: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Register fleet-wide.
	code, body := adminDo(t, http.MethodPost, f.url+"/v1/models", regBody)
	if code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}
	var fan AdminFanoutResponse
	if err := json.Unmarshal(body, &fan); err != nil {
		t.Fatal(err)
	}
	owners := f.router.Placement("live")
	if len(fan.Targets) != len(owners) || len(fan.Results) != len(owners) {
		t.Fatalf("fanout targets %v, want placement %v", fan.Targets, owners)
	}
	for _, res := range fan.Results {
		if res.Status != http.StatusCreated {
			t.Fatalf("backend %s: status %d (%s)", res.Backend, res.Status, res.Error)
		}
	}
	for id, reg := range f.regs {
		_, has := reg.Model("live")
		shouldHave := false
		for _, o := range owners {
			if o == id {
				shouldHave = true
			}
		}
		if has != shouldHave {
			t.Fatalf("backend %s hosts=%v, want %v (placement-aware registration)", id, has, shouldHave)
		}
	}
	// Duplicate registration: every owner answers 409, and the router
	// relays the unanimous verdict.
	if code, _ = adminDo(t, http.MethodPost, f.url+"/v1/models", regBody); code != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", code)
	}

	// The runtime-registered model routes and matches direct inference.
	eng, err := infer.FromConfig(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 16)
	row[3] = 1
	rowIn, err := sparse.DenseFromSlice(1, 16, row)
	if err != nil {
		t.Fatal(err)
	}
	y, err := eng.Infer(rowIn)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := f.post(t, "live", [][]float64{row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer on registered model: %d: %s", resp.StatusCode, data)
	}
	var iresp serve.InferResponse
	if err := json.Unmarshal(data, &iresp); err != nil {
		t.Fatal(err)
	}
	for c, v := range iresp.Outputs[0] {
		if v != y.Data()[c] {
			t.Fatalf("col %d: %v != %v", c, v, y.Data()[c])
		}
	}

	// Reload reaches every backend reporting the model.
	code, body = adminDo(t, http.MethodPut, f.url+"/v1/models/live", regBody)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", code, body)
	}
	for _, id := range owners {
		m, ok := f.regs[id].Model("live")
		if !ok || m.Generation() != 2 {
			t.Fatalf("backend %s generation after fleet reload: %v", id, m)
		}
	}
	// A reload keeps each copy's engine count: every copy refuses a body
	// naming another count, and the router relays the 422 with both
	// numbers; a body naming no count is applied.
	for _, c := range []struct {
		engines, status int
		says            string
	}{{2, http.StatusUnprocessableEntity, "has 1, the reload asks for 2"}, {0, http.StatusOK, `"status":200`}} {
		reload, err := json.Marshal(serve.RegisterRequest{Config: cfgJSON, Engines: c.engines})
		if err != nil {
			t.Fatal(err)
		}
		if code, body = adminDo(t, http.MethodPut, f.url+"/v1/models/live", reload); code != c.status || !strings.Contains(string(body), c.says) {
			t.Fatalf("reload with engines %d: status %d, want %d: %s", c.engines, code, c.status, body)
		}
	}
	// The bare reload replaced the config a scale-out registers, not the
	// engine count the model was registered with.
	f.router.scaleMu.RLock()
	cached := f.router.models["live"].reg
	f.router.scaleMu.RUnlock()
	if cached == nil || cached.Engines != 1 {
		t.Fatalf("recorded register request after a bare reload: %+v, want 1 engine", cached)
	}
	for _, id := range owners {
		m, ok := f.regs[id].Model("live")
		if !ok {
			t.Fatalf("backend %s lost the model", id)
		}
		if info := m.Info(); info.Generation != 3 || info.Engines != 1 {
			t.Fatalf("backend %s after a refused and an applied reload: generation %d, %d engines; want 3 and 1", id, info.Generation, info.Engines)
		}
	}
	if code, _ = adminDo(t, http.MethodPut, f.url+"/v1/models/ghost", regBody); code != http.StatusNotFound {
		t.Fatalf("reload of unknown model: status %d, want 404", code)
	}

	// Unregister everywhere; the fleet then 404s.
	if code, body = adminDo(t, http.MethodDelete, f.url+"/v1/models/live", nil); code != http.StatusOK {
		t.Fatalf("unregister: status %d: %s", code, body)
	}
	for id, reg := range f.regs {
		if _, ok := reg.Model("live"); ok {
			t.Fatalf("backend %s still hosts the model after fleet unregister", id)
		}
	}
	resp, _ = f.post(t, "live", [][]float64{row})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("infer after unregister: status %d, want 404", resp.StatusCode)
	}
	if code, _ = adminDo(t, http.MethodDelete, f.url+"/v1/models/live", nil); code != http.StatusNotFound {
		t.Fatalf("double unregister: status %d, want 404", code)
	}
	if got := f.router.Metrics().Admin; got < 6 {
		t.Fatalf("admin ops counter = %d, want ≥6", got)
	}
}

// TestRouterAdminFanoutEscapesModelName is the regression for the admin
// fan-out addressing the wrong model: model names are client-chosen, and
// a name holding "#", "/", " ", "?" or "%" must reach the backend as one
// escaped path segment. Built from the decoded name, "a#b" lost its
// fragment and the backend reloaded or unregistered "a" instead.
func TestRouterAdminFanoutEscapesModelName(t *testing.T) {
	for _, odd := range []string{"a#b", "a/b", "a b", "a?x=1", "a%2Fb"} {
		t.Run(odd, func(t *testing.T) {
			reg := serve.NewRegistry(serve.Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
			t.Cleanup(reg.Close)
			srv := serve.NewServer(reg, "127.0.0.1:0")
			var mu sync.Mutex
			var seen []string // admin request lines the backend received
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPut || r.Method == http.MethodDelete {
					mu.Lock()
					seen = append(seen, r.Method+" "+r.RequestURI)
					mu.Unlock()
				}
				srv.Handler().ServeHTTP(w, r)
			}))
			t.Cleanup(backend.Close)
			_, routerURL := startRouter(t, RouterConfig{Backends: []string{backend.URL}, Replicas: 1, Set: SetConfig{ProbeInterval: time.Hour}})

			cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfgJSON, err := graphio.MarshalConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			body := func(name string) []byte {
				b, err := json.Marshal(serve.RegisterRequest{Name: name, Config: cfgJSON, Engines: 1})
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			for _, name := range []string{"a", odd} {
				if code, out := adminDo(t, http.MethodPost, routerURL+"/v1/models", body(name)); code != http.StatusCreated {
					t.Fatalf("register %q: status %d: %s", name, code, out)
				}
			}

			path := "/v1/models/" + url.PathEscape(odd)
			if code, out := adminDo(t, http.MethodPut, routerURL+path, body(odd)); code != http.StatusOK {
				t.Fatalf("reload %q: status %d: %s", odd, code, out)
			}
			if m, ok := reg.Model(odd); !ok || m.Generation() != 2 {
				t.Fatalf("reload did not reach %q", odd)
			}
			if code, out := adminDo(t, http.MethodDelete, routerURL+path, nil); code != http.StatusOK {
				t.Fatalf("unregister %q: status %d: %s", odd, code, out)
			}
			if _, ok := reg.Model(odd); ok {
				t.Fatalf("%q still registered after the fleet unregister", odd)
			}
			if m, ok := reg.Model("a"); !ok || m.Generation() != 1 {
				t.Fatalf(`model "a" was touched by admin verbs addressed to %q (registered %v)`, odd, ok)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := []string{"PUT " + path, "DELETE " + path}; !slices.Equal(seen, want) {
				t.Fatalf("backend received %q, want %q", seen, want)
			}
		})
	}
}

// TestRefusedAdminBodyIsNotCached: the register body the router caches is
// what a later scale-out POSTs onto new owners, so it must be a config the
// fleet accepted. A register answered 409 everywhere (the name is taken by
// another config) or a reload answered 422 everywhere used to replace it,
// and the next scale-out then built a config the fleet had refused beside
// the one it serves — mixed weights.
func TestRefusedAdminBodyIsNotCached(t *testing.T) {
	accepted := []byte(`{"name":"m","config":{"systems":[[4,4]]},"engines":1}`)
	refused := []byte(`{"name":"m","config":{"systems":[[2,2,2,2]]},"engines":1}`)
	for _, tc := range []struct {
		verb, path string
		status     int
	}{
		{http.MethodPost, "/v1/models", http.StatusConflict},
		{http.MethodPut, "/v1/models/m", http.StatusUnprocessableEntity},
	} {
		t.Run(tc.verb, func(t *testing.T) {
			var mu sync.Mutex
			var posted []string // "backend index: body" of every POST /v1/models a backend received
			var addrs []string
			for i := range 2 {
				// The first register creates the model; the name is then taken.
				registered := false
				listing := fakeBackend(t, []string{"m"}, http.NotFound).Config.Handler
				backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					switch {
					case r.Method == http.MethodPost && r.URL.Path == "/v1/models":
						body, _ := io.ReadAll(r.Body)
						mu.Lock()
						posted = append(posted, fmt.Sprintf("%d: %s", i, body))
						taken := registered
						registered = true
						mu.Unlock()
						if taken {
							writeError(w, http.StatusConflict, "m", "model already registered")
							return
						}
						writeJSON(w, http.StatusCreated, serve.AdminResponse{Model: "m", Status: "registered"})
					case r.Method == http.MethodPut:
						writeError(w, http.StatusUnprocessableEntity, "m", "bad config")
					default:
						listing.ServeHTTP(w, r)
					}
				}))
				t.Cleanup(backend.Close)
				addrs = append(addrs, backend.Listener.Addr().String())
			}
			rt, err := NewRouter(RouterConfig{Backends: addrs, Replicas: 1, Set: SetConfig{ProbeInterval: time.Hour}})
			if err != nil {
				t.Fatal(err)
			}
			admin := func(method, path string, body []byte) int {
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				return rec.Code
			}
			if code := admin(http.MethodPost, "/v1/models", accepted); code != http.StatusCreated {
				t.Fatalf("register: status %d", code)
			}
			if code := admin(tc.verb, tc.path, refused); code != tc.status {
				t.Fatalf("%s %s of another config: status %d, want the fleet's unanimous %d", tc.verb, tc.path, code, tc.status)
			}
			before := len(posted)
			if _, err := rt.ScaleTo(context.Background(), "m", 2); err != nil {
				t.Fatal(err)
			}
			if len(posted) != before+1 {
				t.Fatalf("scale-out POSTed %d bodies, want 1 (all: %q)", len(posted)-before, posted)
			}
			owner, newOwner := posted[0][:1], posted[before][:1]
			if newOwner == owner || posted[before][3:] != string(accepted) {
				t.Fatalf("scale-out sent %q (first owner: backend %s); want the accepted register body on the other backend", posted[before], owner)
			}
		})
	}
}

// TestRouterRelaysBackendRedirect: a backend answering /v1/infer with 307
// has its status relayed to the caller. The router does not repost the body
// to the Location, which may name any host.
func TestRouterRelaysBackendRedirect(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
	}))
	t.Cleanup(target.Close)
	backend := fakeBackend(t, []string{"m"}, func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, target.URL+"/v1/infer", http.StatusTemporaryRedirect)
	})
	rt, err := NewRouter(RouterConfig{Backends: []string{backend.Listener.Addr().String()}, Replicas: 1, Set: SetConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.InferRequest{Model: "m", Inputs: [][]float64{{1}}})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	if rec.Code != http.StatusTemporaryRedirect {
		t.Errorf("status %d, want the backend's 307 relayed", rec.Code)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 0 {
		t.Fatalf("the Location target got %d requests, want none", hits)
	}
}

// TestRouterRefusesBadAdminBody: the router decodes register and reload
// bodies as a backend does, so a body every backend would refuse (data
// after the JSON value, a removed field, no config) gets the backend's
// status from the router itself, and no backend hears of it.
func TestRouterRefusesBadAdminBody(t *testing.T) {
	var mu sync.Mutex
	var contacted []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			writeJSON(w, http.StatusOK, serve.Health{Status: "ok"})
			return
		}
		mu.Lock()
		contacted = append(contacted, r.Method+" "+r.URL.Path)
		mu.Unlock()
		writeJSON(w, http.StatusCreated, serve.AdminResponse{Model: "m", Status: "registered"})
	}))
	t.Cleanup(backend.Close)
	rt, err := NewRouter(RouterConfig{Backends: []string{backend.Listener.Addr().String()}, Replicas: 1, Set: SetConfig{ProbeInterval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/v1/models", `{"name":"m","config":{"systems":[[4,4]]}} junk`, http.StatusBadRequest},
		{http.MethodPost, "/v1/models", `{"name":"m","config":{"systems":[[4,4]]}}{"name":"z"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/models", `{"name":"m","kernel":"csc","config":{"systems":[[4,4]]}}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/models", `{"name":"m"}`, http.StatusUnprocessableEntity},
		{http.MethodPut, "/v1/models/m", `{"config":{"systems":[[4,4]]}} junk`, http.StatusBadRequest},
		{http.MethodPut, "/v1/models/m", `{"config":{"systems":[[4,4]]}}{"name":"z"}`, http.StatusBadRequest},
		{http.MethodPut, "/v1/models/m", `{"share":2,"config":{"systems":[[4,4]]}}`, http.StatusBadRequest},
		{http.MethodPut, "/v1/models/m", `{"engines":1}`, http.StatusUnprocessableEntity},
	} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s %s %s: status %d, want %d", c.method, c.path, c.body, rec.Code, c.status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(contacted) > 0 {
		t.Fatalf("refused bodies reached the backend: %v", contacted)
	}
}
