package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/radix"
)

// altConfig returns a config with different interior wiring than
// testConfig but the same 16→16 input/output shape, so it is a legal
// hot-reload target whose outputs differ.
func altConfig(t testing.TB) core.Config {
	t.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(2, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestUnregisterDrainsAndRemoves(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond})
	defer reg.Close()
	cfg := testConfig(t)
	m, err := reg.Register("u", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(1, m.InputWidth(), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, m.OutputWidth())
	if err := doRow(m, in.RowSlice(0), out); err != nil {
		t.Fatal(err)
	}
	if err := reg.Unregister("u"); err != nil {
		t.Fatal(err)
	}
	if err := doRow(m, in.RowSlice(0), out); !errors.Is(err, ErrClosed) {
		t.Fatalf("Infer after Unregister = %v, want ErrClosed", err)
	}
	if _, ok := reg.Model("u"); ok {
		t.Fatal("model still listed after Unregister")
	}
	if len(reg.List()) != 0 {
		t.Fatalf("List after Unregister = %+v", reg.List())
	}
	if err := reg.Unregister("u"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("double Unregister = %v, want ErrNotRegistered", err)
	}
	// The name is free again.
	if _, err := reg.Register("u", cfg, 1); err != nil {
		t.Fatalf("re-register after Unregister: %v", err)
	}
}

func TestReloadValidation(t *testing.T) {
	reg := NewRegistry(Policy{})
	defer reg.Close()
	cfg := testConfig(t)
	if _, err := reg.Reload("ghost", cfg); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Reload of unknown model = %v, want ErrNotRegistered", err)
	}
	if _, err := reg.Register("r", cfg, 1); err != nil {
		t.Fatal(err)
	}
	wide, err := core.NewConfig([]radix.System{radix.MustNew(8, 8)}, nil) // 64→64
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload("r", wide); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("shape-changing Reload = %v, want ErrIncompatible", err)
	}
	// A malformed config must error like Register does, not panic in the
	// width check.
	if _, err := reg.Reload("r", core.Config{}); err == nil {
		t.Fatal("Reload of an invalid (empty) config accepted")
	}
	if got := mustModel(t, reg, "r").Generation(); got != 1 {
		t.Fatalf("generation after refused reloads = %d, want 1", got)
	}
}

func mustModel(t *testing.T, reg *Registry, name string) *Model {
	t.Helper()
	m, ok := reg.Model(name)
	if !ok {
		t.Fatalf("model %q missing", name)
	}
	return m
}

// TestReloadSwapsWeights proves a reload actually changes what the model
// computes: after swapping in a config with different interior wiring, the
// model's outputs match a reference engine of the NEW config bit for bit.
func TestReloadSwapsWeights(t *testing.T) {
	cfgA, cfgB := testConfig(t), altConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("w", cfgA, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(4, m.InputWidth(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantA := referenceOutputs(t, cfgA, in)
	wantB := referenceOutputs(t, cfgB, in)
	check := func(want [][]float64, label string) {
		t.Helper()
		out := make([]float64, m.OutputWidth())
		for r := 0; r < in.Rows(); r++ {
			if err := doRow(m, in.RowSlice(r), out); err != nil {
				t.Fatalf("%s row %d: %v", label, r, err)
			}
			for c, v := range out {
				if v != want[r][c] {
					t.Fatalf("%s row %d col %d: got %v want %v", label, r, c, v, want[r][c])
				}
			}
		}
	}
	check(wantA, "gen1")
	if _, err := reg.Reload("w", cfgB); err != nil {
		t.Fatal(err)
	}
	if m.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", m.Generation())
	}
	if m.Metrics().Reloads.Load() != 1 {
		t.Fatalf("Reloads = %d, want 1", m.Metrics().Reloads.Load())
	}
	// A reload keeps the engine count: the model runs one batch worker
	// per engine, so a resized pool would hold engines no worker drives.
	if m.Info().Engines != 2 {
		t.Fatalf("engine pool after reload = %d, want 2 (kept)", m.Info().Engines)
	}
	check(wantB, "gen2")
	// And back, proving repeated swaps stay clean.
	if _, err := reg.Reload("w", cfgA); err != nil {
		t.Fatal(err)
	}
	if m.Info().Engines != 2 {
		t.Fatalf("engines after the second reload = %d, want 2 (kept)", m.Info().Engines)
	}
	check(wantA, "gen3")
}

// TestReloadWaitsForLeasedEngines pins the lease-counting contract: a
// reload must not retire the old generation while one of its engines is
// checked out, and the swap must already be visible to new leases.
func TestReloadWaitsForLeasedEngines(t *testing.T) {
	reg := NewRegistry(Policy{})
	defer reg.Close()
	cfg := testConfig(t)
	m, err := reg.Register("l", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.Lease()
	done := make(chan error, 1)
	go func() {
		_, err := reg.Reload("l", cfg)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Reload completed with a gen-1 engine still leased (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The swap itself must not wait: a fresh lease gets the new generation
	// even while the old one drains.
	e2 := m.Lease()
	if e2 == e1 {
		t.Fatal("lease during reload returned the retiring engine")
	}
	m.Release(e2)
	m.Release(e1)
	if err := <-done; err != nil {
		t.Fatalf("Reload after release: %v", err)
	}
	if m.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", m.Generation())
	}
}

// TestConcurrentInferDuringReload is the hot-swap acceptance test: clients
// hammering Infer across several engine-pool reloads of the same config
// must see zero failures and zero bit divergence.
func TestConcurrentInferDuringReload(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("hot", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 8
	in, err := dataset.SparseBatch(rows, m.InputWidth(), 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)

	const (
		clients = 4
		reloads = 3
	)
	stop := make(chan struct{})
	var inferred, failures atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]float64, m.OutputWidth())
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := i % rows
				if err := doRow(m, in.RowSlice(r), out); err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("infer: %w", err))
					return
				}
				for col, v := range out {
					if v != want[r][col] {
						failures.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("row %d col %d diverged mid-reload", r, col))
						return
					}
				}
				inferred.Add(1)
			}
		}(c)
	}
	// Pace the reloads against observed traffic so every swap really does
	// race in-flight inference instead of finishing before the first row.
	waitRows := func(target int64) {
		deadline := time.Now().Add(10 * time.Second)
		for inferred.Load() < target && failures.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < reloads; i++ {
		waitRows(int64((i + 1) * 20))
		if _, err := reg.Reload("hot", cfg); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	waitRows(int64((reloads + 1) * 20))
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures during hot reload (first: %v)", failures.Load(), firstErr.Load())
	}
	if inferred.Load() == 0 {
		t.Fatal("no rows inferred during the reload storm")
	}
	if m.Generation() != 1+reloads {
		t.Fatalf("generation = %d, want %d", m.Generation(), 1+reloads)
	}
}

// TestConcurrentInferDuringUnregister: requests racing an unregister either
// complete normally or fail with ErrClosed — nothing else, and no deadlock.
func TestConcurrentInferDuringUnregister(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("bye", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(4, m.InputWidth(), 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var unexpected atomic.Value
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, m.OutputWidth())
			for i := 0; i < 200; i++ {
				err := doRow(m, in.RowSlice(i%in.Rows()), out)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						unexpected.CompareAndSwap(nil, err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := reg.Unregister("bye"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if v := unexpected.Load(); v != nil {
		t.Fatalf("unexpected error racing Unregister: %v", v)
	}
}

// adminDo issues one control-plane request and returns status + body.
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

func registerBody(t *testing.T, name string, cfg core.Config, engines int) []byte {
	t.Helper()
	cfgJSON, err := graphio.MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(RegisterRequest{Name: name, Config: cfgJSON, Engines: engines})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHTTPAdminEndpoints walks the whole control plane over the wire:
// register (201, then 409 on the duplicate), infer against the new model,
// hot-reload (200 with the model's engine count or none, 404 unknown, 422
// shape change or another engine count), and unregister (200, then 404
// everywhere).
func TestHTTPAdminEndpoints(t *testing.T) {
	_, _, ts := newTestServer(t, Policy{MaxBatch: 4, MaxLatency: time.Millisecond}, 1)
	cfg := testConfigLocal(t)

	// Register.
	code, body := adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBody(t, "live", cfg, 2))
	if code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}
	var info ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "live" || info.Generation != 1 || info.Engines != 2 {
		t.Fatalf("register info = %+v", info)
	}
	if code, body = adminDo(t, http.MethodPost, ts.URL+"/v1/models", registerBody(t, "live", cfg, 1)); code != http.StatusConflict {
		t.Fatalf("duplicate register: status %d: %s", code, body)
	}
	if code, _ = adminDo(t, http.MethodPost, ts.URL+"/v1/models", []byte(`{"name":"x","config":{"systems":[[0]]}}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("bad config register: status %d", code)
	}
	if code, _ = adminDo(t, http.MethodPost, ts.URL+"/v1/models", []byte(`{broken`)); code != http.StatusBadRequest {
		t.Fatalf("broken JSON register: status %d", code)
	}
	if code, _ = adminDo(t, http.MethodPost, ts.URL+"/v1/models", []byte(`{"config":{"systems":[[4,4]]}}`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("nameless register: status %d", code)
	}
	// The removed "kernel", "share" and "workers" fields are refused by
	// name on both admin verbs — a lenient decoder would otherwise serve
	// the model without what the client asked for and answer 201.
	for _, c := range []struct{ field, method, url, body string }{
		{"kernel", http.MethodPost, "/v1/models", `{"name":"pinned","kernel":"csc","config":{"systems":[[4,4]]}}`},
		{"kernel", http.MethodPut, "/v1/models/live", `{"kernel":"auto","config":{"systems":[[4,4]]}}`},
		{"share", http.MethodPost, "/v1/models", `{"name":"pinned","share":2,"config":{"systems":[[4,4]]}}`},
		{"share", http.MethodPut, "/v1/models/live", `{"share":2,"config":{"systems":[[4,4]]}}`},
		{"workers", http.MethodPost, "/v1/models", `{"name":"pinned","workers":2,"config":{"systems":[[4,4]]}}`},
		{"workers", http.MethodPut, "/v1/models/live", `{"workers":2,"config":{"systems":[[4,4]]}}`},
	} {
		code, body = adminDo(t, c.method, ts.URL+c.url, []byte(c.body))
		if code != http.StatusBadRequest || !strings.Contains(string(body), `\"`+c.field+`\" field was removed`) {
			t.Fatalf("%s with %s field: status %d: %s", c.method, c.field, code, body)
		}
	}
	if code, body = adminDo(t, http.MethodGet, ts.URL+"/v1/models", nil); strings.Contains(string(body), "pinned") || strings.Contains(string(body), `"generation":2`) {
		t.Fatalf("refused requests changed the registry: %d: %s", code, body)
	}

	// The runtime-registered model serves.
	in, err := dataset.SparseBatch(2, info.InputWidth, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)
	resp, ibody := postInfer(t, ts.URL, InferRequest{Model: "live", Inputs: [][]float64{in.RowSlice(0), in.RowSlice(1)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer on registered model: %d: %s", resp.StatusCode, ibody)
	}
	var iresp InferResponse
	if err := json.Unmarshal(ibody, &iresp); err != nil {
		t.Fatal(err)
	}
	for r := range iresp.Outputs {
		for c := range iresp.Outputs[r] {
			if iresp.Outputs[r][c] != want[r][c] {
				t.Fatalf("runtime-registered model diverged at row %d col %d", r, c)
			}
		}
	}

	// Reload. The engine count is the model's: a body naming another is
	// refused with both numbers, one naming the same count or none is
	// applied.
	code, body = adminDo(t, http.MethodPut, ts.URL+"/v1/models/live", registerBody(t, "", cfg, 3))
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "has 2, the reload asks for 3") {
		t.Fatalf("reload to 3 engines: status %d: %s", code, body)
	}
	for i, engines := range []int{2, 0} {
		code, body = adminDo(t, http.MethodPut, ts.URL+"/v1/models/live", registerBody(t, "", cfg, engines))
		if code != http.StatusOK {
			t.Fatalf("reload with engines %d: status %d: %s", engines, code, body)
		}
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Generation != 2+i || info.Engines != 2 {
			t.Fatalf("reload with engines %d: info = %+v", engines, info)
		}
	}
	if code, _ = adminDo(t, http.MethodPut, ts.URL+"/v1/models/ghost", registerBody(t, "", cfg, 1)); code != http.StatusNotFound {
		t.Fatalf("reload unknown: status %d", code)
	}
	wide, err := core.NewConfig([]radix.System{radix.MustNew(8, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ = adminDo(t, http.MethodPut, ts.URL+"/v1/models/live", registerBody(t, "", wide, 1)); code != http.StatusUnprocessableEntity {
		t.Fatalf("shape-changing reload: status %d", code)
	}

	// Generation is visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mtext), `radixserve_model_generation{model="live"} 3`) {
		t.Fatalf("metrics missing generation gauge:\n%s", mtext)
	}
	if !strings.Contains(string(mtext), `radixserve_reloads_total{model="live"} 2`) {
		t.Fatalf("metrics missing reloads counter:\n%s", mtext)
	}

	// Unregister.
	if code, body = adminDo(t, http.MethodDelete, ts.URL+"/v1/models/live", nil); code != http.StatusOK {
		t.Fatalf("unregister: status %d: %s", code, body)
	}
	resp, _ = postInfer(t, ts.URL, InferRequest{Model: "live", Inputs: [][]float64{in.RowSlice(0)}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("infer after unregister: status %d", resp.StatusCode)
	}
	if code, _ = adminDo(t, http.MethodDelete, ts.URL+"/v1/models/live", nil); code != http.StatusNotFound {
		t.Fatalf("double unregister: status %d", code)
	}
}

// testConfigLocal mirrors testConfig but avoids colliding with the "m"
// model newTestServer registers (the admin test registers its own names).
// TestAdminBodyTrailingDataRefused: an admin body is exactly one JSON
// value. Data after it, junk or a second value, gets a 400 on both verbs
// and changes nothing, as the router's decoding of the same body does.
func TestAdminBodyTrailingDataRefused(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{}, 1)
	for _, c := range []struct{ method, url, body string }{
		{http.MethodPost, "/v1/models", `{"name":"x","config":{"systems":[[4,4]]}} junk`},
		{http.MethodPost, "/v1/models", `{"name":"x","config":{"systems":[[4,4]]}}{"name":"z"}`},
		{http.MethodPut, "/v1/models/m", `{"config":{"systems":[[4,4]]}} junk`},
		{http.MethodPut, "/v1/models/m", `{"config":{"systems":[[4,4]]}}{"name":"z"}`},
	} {
		if code, body := adminDo(t, c.method, ts.URL+c.url, []byte(c.body)); code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d: %s; want 400", c.method, c.url, c.body, code, body)
		}
	}
	if _, body := adminDo(t, http.MethodGet, ts.URL+"/v1/models", nil); strings.Contains(string(body), `"x"`) || strings.Contains(string(body), `"z"`) || m.Info().Generation != 1 {
		t.Fatalf("refused bodies changed the registry: generation %d, models %s", m.Info().Generation, body)
	}
}

func testConfigLocal(t *testing.T) core.Config {
	t.Helper()
	return testConfig(t)
}

// TestHealthzDrainingAfterClose: once the registry closes, /healthz must
// flip to 503 "draining" so cluster probes route around the backend, and
// Client.Health must report it as unhealthy.
func TestHealthzDrainingAfterClose(t *testing.T) {
	reg := NewRegistry(Policy{})
	if _, err := reg.Register("h", testConfig(t), 1); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, "127.0.0.1:0")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz before close = %d %q", resp.StatusCode, h.Status)
	}

	reg.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz after close = %d %q, want 503 draining", resp.StatusCode, h.Status)
	}
	var refused *StatusError
	if _, err := (Client{URL: ts.URL, HTTP: ts.Client()}).Health(context.Background()); !errors.As(err, &refused) || refused.Status != http.StatusServiceUnavailable {
		t.Fatalf("Client.Health of a draining backend: %v, want a StatusError carrying 503", err)
	}
}

// nonFlusher is a ResponseWriter that deliberately lacks Flush.
type nonFlusher struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (n *nonFlusher) Header() http.Header         { return n.header }
func (n *nonFlusher) WriteHeader(code int)        { n.code = code }
func (n *nonFlusher) Write(p []byte) (int, error) { return n.buf.Write(p) }

// TestStatusRecorderForwardsFlush: the status-counting middleware must not
// hide http.Flusher from wrapped handlers — a streaming handler's flushes
// reach the underlying writer, and a non-flushing writer stays a no-op
// instead of panicking.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	s := NewServer(NewRegistry(Policy{}), "127.0.0.1:0")
	flushed := false
	h := s.countStatus(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("middleware hides http.Flusher")
			return
		}
		w.WriteHeader(http.StatusOK)
		f.Flush()
		flushed = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !flushed || !rec.Flushed {
		t.Fatalf("flush did not reach the underlying writer (handler flushed=%v, recorder flushed=%v)", flushed, rec.Flushed)
	}

	// http.ResponseController reaches it through Unwrap too.
	ctrlOK := false
	h = s.countStatus(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush: %v", err)
			return
		}
		ctrlOK = true
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if !ctrlOK || !rec.Flushed {
		t.Fatal("ResponseController flush did not reach the underlying writer")
	}

	// A writer without Flush support must not panic.
	h = s.countStatus(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f, ok := w.(http.Flusher); ok {
			f.Flush() // no-op
		}
		w.WriteHeader(http.StatusOK)
	}))
	h.ServeHTTP(&nonFlusher{header: make(http.Header)}, httptest.NewRequest(http.MethodGet, "/", nil))
}
