package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// testConfig returns a small RadiX-Net config (width 16, 2 layers).
func testConfig(t testing.TB) core.Config {
	t.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// doRow runs one row through Do and copies its output into out.
func doRow(m *Model, row, out []float64) error {
	resp, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}})
	if err != nil {
		return err
	}
	copy(out, resp.Outputs[0])
	return nil
}

// referenceOutputs runs every row of in through a fresh CSC engine — the
// bit-identity oracle, where serving builds the radix family — one row at a
// time: the per-row ground truth that batched serving must match bitwise.
func referenceOutputs(t testing.TB, cfg core.Config, in *sparse.Dense) [][]float64 {
	t.Helper()
	eng, err := infer.FromConfigKernel(cfg, infer.KernelCSC)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]float64, in.Rows())
	for r := 0; r < in.Rows(); r++ {
		row, err := sparse.DenseFromSlice(1, in.Cols(), in.RowSlice(r))
		if err != nil {
			t.Fatal(err)
		}
		y, err := eng.Infer(row)
		if err != nil {
			t.Fatal(err)
		}
		outs[r] = append([]float64(nil), y.Data()...)
	}
	return outs
}

func TestRegistryRegisterAndList(t *testing.T) {
	reg := NewRegistry(Policy{})
	defer reg.Close()
	cfg := testConfig(t)
	m, err := reg.Register("a", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.InputWidth() != 16 || m.OutputWidth() != 16 {
		t.Fatalf("widths %d/%d, want 16/16", m.InputWidth(), m.OutputWidth())
	}
	if _, err := reg.Register("a", cfg, 1); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := reg.Register("", cfg, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := reg.Register("b", cfg, 1); err != nil {
		t.Fatal(err)
	}
	infos := reg.List()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Engines != 2 || infos[0].MaxBatch != 32 || infos[0].QueueDepth != 256 {
		t.Fatalf("info defaults wrong: %+v", infos[0])
	}
	if got, ok := reg.Model("a"); !ok || got != m {
		t.Fatal("Model lookup failed")
	}
	if _, ok := reg.Model("nope"); ok {
		t.Fatal("phantom model")
	}
}

// TestSingleRowBitIdenticalToDirectEngine is the serving acceptance core:
// rows routed through the micro-batcher must equal per-row Engine.Infer
// results bit for bit.
func TestSingleRowBitIdenticalToDirectEngine(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(24, m.InputWidth(), 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)
	out := make([]float64, m.OutputWidth())
	for r := 0; r < in.Rows(); r++ {
		if err := doRow(m, in.RowSlice(r), out); err != nil {
			t.Fatal(err)
		}
		for c, v := range out {
			if v != want[r][c] {
				t.Fatalf("row %d col %d: got %v want %v (not bit-identical)", r, c, v, want[r][c])
			}
		}
	}
}

// TestConcurrentClientsCoalesceAndMatch drives many goroutines through one
// model: all results must stay bit-identical to the per-row reference, and
// the scheduler must actually coalesce (fewer engine invocations than
// rows).
func TestConcurrentClientsCoalesceAndMatch(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 100 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 32
	in, err := dataset.SparseBatch(rows, m.InputWidth(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for r := 0; r < rows; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]float64, m.OutputWidth())
			if err := doRow(m, in.RowSlice(r), out); err != nil {
				t.Errorf("row %d: %v", r, err)
				return
			}
			for c, v := range out {
				if v != want[r][c] {
					mismatches.Add(1)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d rows diverged from per-row reference", n)
	}
	s := m.Metrics().Snapshot()
	if s.Completed != rows || s.BatchedRows != rows {
		t.Fatalf("completed %d batched %d, want %d", s.Completed, s.BatchedRows, rows)
	}
	// With a single worker, a 100ms collection window, and 32 concurrent
	// submissions, coalescing is all but certain; equality would mean every
	// row ran alone.
	if s.Batches >= rows {
		t.Fatalf("no coalescing: %d batches for %d rows", s.Batches, rows)
	}
}

// TestBackpressureDeterministic leases the model's only engine so the lone
// worker blocks, fills the bounded queue, and verifies that the overflow is
// rejected with ErrQueueFull while everything accepted completes after the
// engine returns.
func TestBackpressureDeterministic(t *testing.T) {
	cfg := testConfig(t)
	pol := Policy{MaxBatch: 4, MaxLatency: 2 * time.Millisecond, QueueDepth: 4}
	reg := NewRegistry(pol)
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(32, m.InputWidth(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng := m.Lease() // starve the worker: no batch can execute

	const submissions = 32
	results := make(chan error, submissions)
	var wg sync.WaitGroup
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]float64, m.OutputWidth())
			results <- doRow(m, in.RowSlice(i), out)
		}(i)
	}
	// Wait until the queue is saturated: the worker holds at most MaxBatch
	// rows, the queue at most QueueDepth, so at least
	// submissions − MaxBatch − QueueDepth rows must be rejected.
	deadline := time.Now().Add(5 * time.Second)
	for m.Metrics().Snapshot().Rejected < submissions-int64(pol.MaxBatch)-int64(pol.QueueDepth) {
		if time.Now().After(deadline) {
			t.Fatalf("rejections never accumulated: %d", m.Metrics().Snapshot().Rejected)
		}
		time.Sleep(time.Millisecond)
	}
	m.Release(eng)
	wg.Wait()
	close(results)
	var ok, full int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if full == 0 {
		t.Fatal("no backpressure rejections")
	}
	if ok == 0 {
		t.Fatal("nothing completed after the engine freed up")
	}
	if ok+full != submissions {
		t.Fatalf("accounted %d of %d", ok+full, submissions)
	}
	s := m.Metrics().Snapshot()
	if s.Completed != int64(ok) || s.Rejected != int64(full) {
		t.Fatalf("metrics disagree with client view: %+v vs ok=%d full=%d", s, ok, full)
	}
}

func TestInferBatchWholeRequestSemantics(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(6, m.InputWidth(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, in.Rows())
	for r := range rows {
		rows[r] = in.RowSlice(r)
	}
	resp, err := m.Do(context.Background(), &Request{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)
	for r, out := range resp.Outputs {
		for c := range out {
			if out[c] != want[r][c] {
				t.Fatalf("row %d diverged", r)
			}
		}
	}
	// Width errors fail the whole request, before any of its rows is queued.
	accepted := m.Metrics().Snapshot().Accepted
	if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{rows[0], {1, 2}}}); err == nil {
		t.Fatal("bad row width accepted")
	}
	if got := m.Metrics().Snapshot().Accepted; got != accepted {
		t.Fatalf("a request with a bad row queued %d of its rows", got-accepted)
	}
	if _, err := m.Do(context.Background(), &Request{}); err == nil {
		t.Fatal("empty batch accepted")
	}

	// A request the class queue cannot take whole is refused whole: none of
	// its rows is queued, every one is counted rejected, none runs.
	t.Run("refused whole", func(t *testing.T) {
		reg := NewRegistry(Policy{MaxBatch: 2, QueueDepth: 4})
		defer reg.Close()
		m, err := reg.Register("m", cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng := m.Lease() // the collector's batch blocks on the only engine
		released := false
		defer func() {
			if !released {
				m.Release(eng)
			}
		}()
		errs := make(chan error, 2)
		submit := func(rows [][]float64, accepted int64, queued int) {
			t.Helper()
			go func() {
				_, err := m.Do(context.Background(), &Request{Rows: rows})
				errs <- err
			}()
			for deadline := time.Now().Add(5 * time.Second); m.Metrics().Snapshot().Accepted != accepted || m.bat.depth() != queued; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("accepted %d, queued %d; want %d and %d", m.Metrics().Snapshot().Accepted, m.bat.depth(), accepted, queued)
				}
			}
		}
		submit(rows[0:2], 2, 0) // taken by the collector, which then blocks
		submit(rows[2:5], 5, 3) // queued: one slot of four left
		before := m.Metrics().Snapshot()
		if _, err := m.Do(context.Background(), &Request{Rows: rows[4:6]}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("2-row request into 1 free slot: err %v, want ErrQueueFull", err)
		}
		after := m.Metrics().Snapshot()
		if after.Accepted != before.Accepted || after.Rejected != before.Rejected+2 {
			t.Fatalf("refused request: accepted %d → %d, rejected %d → %d; want accepted unchanged, rejected +2",
				before.Accepted, after.Accepted, before.Rejected, after.Rejected)
		}
		if got := m.bat.depth(); got != 3 {
			t.Fatalf("refused request left %d rows queued, want the 3 queued before it", got)
		}
		m.Release(eng)
		released = true
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if s := m.Metrics().Snapshot(); s.Completed != 5 || s.BatchedRows != 5 {
			t.Fatalf("completed %d rows in batches of %d rows, want the 5 admitted rows only", s.Completed, s.BatchedRows)
		}
	})

	// A request with more rows than its class queue holds could never be
	// admitted whole: it is refused before any row is queued, and over HTTP
	// it is a 413 that names its model and class.
	t.Run("too large", func(t *testing.T) {
		_, m, ts := newTestServer(t, Policy{MaxBatch: 2, QueueDepth: 4}, 1)
		_, err := m.Do(context.Background(), &Request{Rows: rows[:5]})
		if !errors.Is(err, ErrRequestTooLarge) || errStatus(err) != http.StatusRequestEntityTooLarge {
			t.Fatalf("5 rows into a 4-row queue: err %v (status %d), want ErrRequestTooLarge (413)", err, errStatus(err))
		}
		if msg := err.Error(); !strings.Contains(msg, "5 rows") || !strings.Contains(msg, "holds 4") {
			t.Fatalf("error %q does not name both the request's rows and the queue's depth", msg)
		}
		resp, body := postInfer(t, ts.URL, InferRequest{Model: "m", Class: ClassBatch, Inputs: rows[:5]})
		var e ErrorResponse
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e) != nil || e.Model != "m" || e.Class != ClassBatch {
			t.Fatalf("over HTTP: status %d, body %s; want 413 naming model %q and class %q", resp.StatusCode, body, "m", ClassBatch)
		}
		if s := m.Metrics().Snapshot(); s.Accepted != 0 || s.Rejected != 0 || s.Completed != 0 || m.bat.depth() != 0 {
			t.Fatalf("too-large requests touched the queue: %+v, depth %d", s, m.bat.depth())
		}
		if _, err := m.Do(context.Background(), &Request{Rows: rows[:4]}); err != nil {
			t.Fatalf("a request that fits the queue exactly: %v", err)
		}
	})
}

func TestCloseRejectsNewWorkAndDrains(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: 50 * time.Millisecond})
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(4, m.InputWidth(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Rows accepted before Close must complete (drain), even though they
	// are still waiting out the 50ms batch-collection window when Close
	// begins.
	var wg sync.WaitGroup
	errs := make([]error, in.Rows())
	for r := 0; r < in.Rows(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]float64, m.OutputWidth())
			errs[r] = doRow(m, in.RowSlice(r), out)
		}(r)
	}
	for m.Metrics().Snapshot().Accepted < int64(in.Rows()) {
		time.Sleep(time.Millisecond)
	}
	reg.Close()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("pre-close row %d failed: %v", r, err)
		}
	}
	out := make([]float64, m.OutputWidth())
	if err := doRow(m, in.RowSlice(0), out); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Infer = %v, want ErrClosed", err)
	}
	if _, err := reg.Register("late", cfg, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Register = %v, want ErrClosed", err)
	}
	reg.Close() // idempotent
}

// newTestServer wires a registry + server over httptest.
func newTestServer(t *testing.T, pol Policy, engines int) (*Server, *Model, *httptest.Server) {
	t.Helper()
	cfg := testConfig(t)
	reg := NewRegistry(pol)
	m, err := reg.Register("m", cfg, engines)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, "127.0.0.1:0")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return s, m, ts
}

func postInfer(t *testing.T, url string, req InferRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPInferEndToEnd(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{MaxBatch: 8, MaxLatency: time.Millisecond}, 2)
	cfg := m.Config()
	in, err := dataset.SparseBatch(3, m.InputWidth(), 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)
	rows := make([][]float64, in.Rows())
	for r := range rows {
		rows[r] = in.RowSlice(r)
	}
	resp, body := postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: rows, Categories: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got InferResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rows != 3 || len(got.Outputs) != 3 || len(got.Active) != 3 || len(got.Argmax) != 3 {
		t.Fatalf("response shape: %+v", got)
	}
	// JSON float64 round-trips exactly (shortest-repr encoding), so even
	// over the wire the outputs stay bit-identical.
	for r := range got.Outputs {
		for c := range got.Outputs[r] {
			if got.Outputs[r][c] != want[r][c] {
				t.Fatalf("row %d col %d: %v != %v", r, c, got.Outputs[r][c], want[r][c])
			}
		}
	}

	// Error paths.
	resp, _ = postInfer(t, ts.URL, InferRequest{Model: "nope", Inputs: rows})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}
	resp, _ = postInfer(t, ts.URL, InferRequest{Model: "m"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty inputs: status %d", resp.StatusCode)
	}
	resp, _ = postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad width: status %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON: status %d", r2.StatusCode)
	}
	r3, err := http.Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET infer: status %d", r3.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	pol := Policy{MaxBatch: 2, MaxLatency: 2 * time.Millisecond, QueueDepth: 2}
	_, m, ts := newTestServer(t, pol, 1)
	in, err := dataset.SparseBatch(16, m.InputWidth(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := m.Lease()
	var wg sync.WaitGroup
	var got429, got200 atomic.Int64
	release := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{in.RowSlice(i)}})
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				var e ErrorResponse
				if err := json.Unmarshal(body, &e); err != nil || e.Model != "m" {
					t.Errorf("429 body %s: model name missing (err %v)", body, err)
				}
				got429.Add(1)
			case http.StatusOK:
				got200.Add(1)
			default:
				t.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	go func() {
		// At least 16−2−2 rejections must accumulate while the engine is
		// held; then let the accepted rows finish.
		deadline := time.Now().Add(5 * time.Second)
		for m.Metrics().Snapshot().Rejected < 12 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		m.Release(eng)
		close(release)
	}()
	wg.Wait()
	<-release
	// Every rejection is a 429, and the engine was held until 16−2−2 had
	// accumulated.
	if n := got429.Load(); n < 12 {
		t.Fatalf("%d 429 responses under saturation, want >= 12", n)
	}
	if got200.Load() == 0 {
		t.Fatal("no requests completed after release")
	}
}

func TestHTTPModelsHealthzMetrics(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{MaxBatch: 4, MaxLatency: time.Millisecond}, 1)
	// Push one row so counters are nonzero.
	out := make([]float64, m.OutputWidth())
	row := make([]float64, m.InputWidth())
	row[3] = 1
	if err := doRow(m, row, out); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models map[string][]ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models["models"]) != 1 || models["models"][0].Name != "m" {
		t.Fatalf("models = %+v", models)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`radixserve_rows_accepted_total{model="m"} 1`,
		`radixserve_rows_completed_total{model="m"} 1`,
		`radixserve_batches_total{model="m"} 1`,
		`radixserve_queue_capacity{model="m"}`,
		"radixserve_http_responses_total",
		"radixserve_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestServerStartShutdown(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond})
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, "127.0.0.1:0")
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Shutdown closed the registry too: submissions now fail.
	out := make([]float64, m.OutputWidth())
	if err := doRow(m, make([]float64, m.InputWidth()), out); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Infer = %v, want ErrClosed", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestMetricsSnapshotDerived: every model-level count is read from the
// one instrument that keeps it — row outcomes summed over the classes,
// completed rows from LatencyHist, batches and batched rows from
// BatchHist — and observe keeps the all-time worst latency.
func TestMetricsSnapshotDerived(t *testing.T) {
	m := Metrics{classes: make([]ClassMetrics, 2)}
	for _, rows := range []int64{4, 3, 3} {
		m.BatchHist.Observe(rows)
	}
	m.observe(int64(2*time.Millisecond), "")
	m.observe(int64(6*time.Millisecond), "")
	m.class(0).Accepted.Store(5)
	m.class(1).Accepted.Store(7)
	m.class(0).Rejected.Store(1)
	m.class(1).Expired.Store(2)
	m.Failed.Store(3)
	want := MetricsSnapshot{Accepted: 12, Rejected: 1, Completed: 2, Failed: 3, Expired: 2, Batches: 3, BatchedRows: 10}
	if got := m.Snapshot(); got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
	if got := time.Duration(m.MaxLatency.Load()); got != 6*time.Millisecond {
		t.Fatalf("MaxLatency = %v", got)
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxBatch != 32 || p.MaxLatency != 2*time.Millisecond || p.QueueDepth != 256 {
		t.Fatalf("defaults = %+v", p)
	}
	p = Policy{MaxLatency: -1}.withDefaults()
	if p.MaxLatency != -1 {
		t.Fatal("negative MaxLatency (no waiting) must be preserved")
	}
	keep := Policy{MaxBatch: 7, MaxLatency: time.Second, QueueDepth: 9}.withDefaults()
	if keep.MaxBatch != 7 || keep.MaxLatency != time.Second || keep.QueueDepth != 9 {
		t.Fatalf("explicit policy overridden: %+v", keep)
	}
}

// TestSingleClientFastPathLatency is the latency regression test for the
// single-client fast path: a closed-loop client (one row in flight at a
// time) must not pay the MaxLatency batching budget per row. With the
// deliberately huge 300ms budget below, the pre-fast-path scheduler took
// ≥ 1.5s for five rows; the fast path dispatches each row immediately, so
// the whole loop must finish well inside one budget.
func TestSingleClientFastPathLatency(t *testing.T) {
	cfg := testConfig(t)
	const budget = 300 * time.Millisecond
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: budget})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(5, m.InputWidth(), 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, cfg, in)
	out := make([]float64, m.OutputWidth())
	start := time.Now()
	for r := 0; r < in.Rows(); r++ {
		if err := doRow(m, in.RowSlice(r), out); err != nil {
			t.Fatal(err)
		}
		for c, v := range out {
			if v != want[r][c] {
				t.Fatalf("row %d diverged under fast path", r)
			}
		}
	}
	if elapsed := time.Since(start); elapsed >= budget {
		t.Fatalf("5 closed-loop rows took %v with a %v latency budget: fast path not engaged", elapsed, budget)
	}
}

// TestInferBatchCoalescesDespiteFastPath guards the other side of the fast
// path: a multi-row request's rows are queued in one step, so the collector
// takes them together instead of executing a tiny batch per row.
func TestInferBatchCoalescesDespiteFastPath(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 100 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(8, m.InputWidth(), 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, in.Rows())
	for r := range rows {
		rows[r] = in.RowSlice(r)
	}
	start := time.Now()
	if _, err := m.Do(context.Background(), &Request{Rows: rows}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	s := m.Metrics().Snapshot()
	if s.Batches != 1 {
		t.Fatalf("8-row request ran in %d batches, want 1", s.Batches)
	}
	// The batch fills to MaxBatch and must then execute without waiting out
	// the rest of the 100ms collection window.
	if elapsed >= 100*time.Millisecond {
		t.Fatalf("full batch still waited out the latency budget (%v)", elapsed)
	}
}

// TestManyModelsConcurrently exercises the registry under cross-model load.
func TestManyModelsConcurrently(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	var models []*Model
	for i, radices := range [][]int{{4, 4}, {2, 2, 2}, {3, 3}} {
		cfg, err := core.NewConfig([]radix.System{radix.MustNew(radices...)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := reg.Register(fmt.Sprintf("m%d", i), cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	var wg sync.WaitGroup
	for _, m := range models {
		in, err := dataset.SparseBatch(16, m.InputWidth(), 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceOutputs(t, m.Config(), in)
		for r := 0; r < in.Rows(); r++ {
			wg.Add(1)
			go func(m *Model, r int, want []float64) {
				defer wg.Done()
				out := make([]float64, m.OutputWidth())
				if err := doRow(m, in.RowSlice(r), out); err != nil {
					t.Errorf("%s row %d: %v", m.Name(), r, err)
					return
				}
				for c, v := range out {
					if v != want[c] {
						t.Errorf("%s row %d diverged", m.Name(), r)
						return
					}
				}
			}(m, r, want[r])
		}
	}
	wg.Wait()
}
