package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// modelName is the registry name every served workload uses.
const modelName = "bench"

// build constructs the workload's target: everything set-up time pays for
// except the warm-up operations.
func build(ctx context.Context, s Spec, cfg core.Config, in *Inputs) (target, error) {
	switch s.Kind {
	case KindOffline:
		return newOfflineTarget(cfg, in)
	case KindServe:
		return newHTTPTarget(ctx, cfg, in, s, false)
	case KindRouter:
		return newHTTPTarget(ctx, cfg, in, s, true)
	}
	return nil, fmt.Errorf("bench: %s: unknown kind %d", s.Name, s.Kind)
}

// offlineTarget is one caller of Engine.Infer on the shared worker pool
// (GOMAXPROCS workers): no serve, cluster or obs code runs.
type offlineTarget struct {
	in    *Inputs
	eng   *infer.Engine
	batch *sparse.Dense
	rows  []int
	// profiled mirrors whether the engine's public per-layer profiler is
	// attached; it follows the harness's tracing window by window.
	profiled bool
}

func newOfflineTarget(cfg core.Config, in *Inputs) (*offlineTarget, error) {
	eng, err := infer.FromConfigKernel(cfg, infer.KernelAuto)
	if err != nil {
		return nil, fmt.Errorf("bench: offline engine: %w", err)
	}
	rows := in.Pick(0, InputRows)
	batch, err := in.Batch(rows)
	if err != nil {
		return nil, fmt.Errorf("bench: offline batch: %w", err)
	}
	return &offlineTarget{in: in, eng: eng, batch: batch, rows: rows}, nil
}

func (t *offlineTarget) do(_ context.Context, _, op int, tr *Tracer) bool {
	if traced := tr != nil; traced != t.profiled {
		if traced {
			t.eng.EnableProfiling(1)
		} else {
			t.eng.DisableProfiling()
		}
		t.profiled = traced
	}
	req := int64(op)
	root := tr.Start("op", 0, req)
	sp := tr.Start("infer.engine", root, req)
	view, err := t.eng.Infer(t.batch)
	tr.End(sp)
	sp = tr.Start("client.verify", root, req)
	ok := err == nil && view.Rows() == len(t.rows)
	if ok {
		// Infer returns a view the next call overwrites; a caller that
		// keeps a batch's result must copy it, so this one does. It is the
		// workload's only allocation: alloc_kb_per_row reads 8 KB here
		// unless the engine starts allocating too.
		kept := view.Clone()
		for i := 0; ok && i < len(t.rows); i++ {
			ok = t.in.Verify(t.rows[i], kept.RowSlice(i))
		}
	}
	tr.End(sp)
	tr.End(root)
	return ok
}

func (t *offlineTarget) counters() counters          { return counters{} }
func (t *offlineTarget) close(context.Context) error { return nil }

// httpTarget posts JSON to a serve.Server, directly or through a
// cluster.Router in front of two of them, over loopback: one client, and so
// one connection, per load-generating goroutine.
type httpTarget struct {
	in      *Inputs
	url     string
	names   spanNames
	clients []*http.Client
	// picks[k] are the row indices of the k-th distinct request; reqs[k]
	// the rows themselves. Operation op sends request op mod len(picks).
	picks [][]int
	reqs  [][][]float64

	servers []*serve.Server
	models  []*serve.Model
	router  *cluster.Router
	// registerMs is how long the first backend's Registry.Register took.
	registerMs float64
}

// newHTTPTarget starts one backend, or two behind a router, each serving cfg
// from s.Engines engines under the default Policy.
func newHTTPTarget(ctx context.Context, cfg core.Config, in *Inputs, s Spec, routed bool) (_ *httpTarget, err error) {
	t := &httpTarget{in: in, names: spanNames{"client.encode", "serve.http", "client.decode", "serve."}}
	for c := 0; c < max(1, s.Conns); c++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}})
	}
	backends := 1
	if routed {
		backends = 2
	}
	defer func() {
		if err != nil {
			_ = t.close(ctx) // the build error is the one worth reporting
		}
	}()
	var addrs []string
	for b := 0; b < backends; b++ {
		reg := serve.NewRegistry(serve.Policy{})
		t0 := time.Now()
		m, err := reg.Register(modelName, cfg, s.Engines)
		if err != nil {
			return nil, fmt.Errorf("bench: register: %w", err)
		}
		if b == 0 {
			t.registerMs = ms(time.Since(t0))
		}
		srv := serve.NewServer(reg, "127.0.0.1:0")
		addr, err := srv.Start()
		if err != nil {
			reg.Close()
			return nil, fmt.Errorf("bench: serve start: %w", err)
		}
		t.servers = append(t.servers, srv)
		t.models = append(t.models, m)
		addrs = append(addrs, addr)
	}
	front := addrs[0]
	if routed {
		t.names.http = "cluster.http"
		// Probes fire once at start and then not again within a run, so no
		// /healthz traffic lands in the per-row counts.
		t.router, err = cluster.NewRouter(cluster.RouterConfig{
			Addr: "127.0.0.1:0", Backends: addrs, Replicas: 2,
			Set: cluster.SetConfig{ProbeInterval: time.Hour},
		})
		if err != nil {
			return nil, fmt.Errorf("bench: router: %w", err)
		}
		if front, err = t.router.Start(); err != nil {
			return nil, fmt.Errorf("bench: router start: %w", err)
		}
	}
	t.url = "http://" + front + "/v1/infer"
	for k := 0; k < InputRows/s.RowsPerOp; k++ {
		pick := in.Pick(k, s.RowsPerOp)
		rows := make([][]float64, len(pick))
		for i, r := range pick {
			rows[i] = in.Rows[r]
		}
		t.picks = append(t.picks, pick)
		t.reqs = append(t.reqs, rows)
	}
	return t, nil
}

// spanNames are the names a target's round trip records its spans under, so
// the workload's spans and the ledger's never pool.
type spanNames struct {
	encode, http, decode string
	// stages prefixes serve's own stage spans read from the reply body;
	// empty skips them.
	stages string
}

// exchange is one request's client-side story.
type exchange struct {
	body, raw []byte // what was sent and what came back
	httpSpan  int32
	ok        bool
}

func (t *httpTarget) encode(k int) ([]byte, error) {
	return json.Marshal(serve.InferRequest{Model: modelName, Inputs: t.reqs[k]})
}

// decode parses a reply to request k and compares every output word with
// the oracle.
func (t *httpTarget) decode(k int, raw []byte) (serve.InferResponse, bool) {
	var resp serve.InferResponse
	pick := t.picks[k]
	ok := json.Unmarshal(raw, &resp) == nil && len(resp.Outputs) == len(pick)
	for i := 0; ok && i < len(pick); i++ {
		ok = t.in.Verify(pick[i], resp.Outputs[i])
	}
	return resp, ok
}

// roundTrip encodes request k, posts it on connection conn, reads and decodes
// the reply and verifies it, recording an encode, an http and a decode span
// under parent.
// serve's own stage spans arrive in the reply body; they are attached under
// the http span, read from that public output rather than re-measured.
func (t *httpTarget) roundTrip(ctx context.Context, conn, k int, tr *Tracer, parent int32, req int64) (ex exchange) {
	sp := tr.Start(t.names.encode, parent, req)
	body, err := t.encode(k)
	tr.End(sp)
	if err != nil {
		return ex
	}
	ex.body = body

	ex.httpSpan = tr.Start(t.names.http, parent, req)
	raw, status, err := t.post(ctx, conn, body)
	tr.End(ex.httpSpan)
	if err != nil || status != http.StatusOK {
		return ex
	}
	ex.raw = raw

	sp = tr.Start(t.names.decode, parent, req)
	resp, ok := t.decode(k, raw)
	tr.End(sp)
	ex.ok = ok
	if t.names.stages != "" {
		for _, s := range resp.Spans {
			tr.Add(t.names.stages+s.Name, ex.httpSpan, req, msDur(s.StartMs), msDur(s.DurMs))
		}
	}
	return ex
}

func (t *httpTarget) post(ctx context.Context, conn int, body []byte) ([]byte, int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := t.clients[conn].Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return raw, resp.StatusCode, err
}

func (t *httpTarget) do(ctx context.Context, conn, op int, tr *Tracer) bool {
	req := int64(op)
	root := tr.Start("op", 0, req)
	ex := t.roundTrip(ctx, conn, op%len(t.picks), tr, root, req)
	tr.End(root)
	return ex.ok
}

func (t *httpTarget) counters() counters {
	var c counters
	for _, m := range t.models {
		s := m.Metrics().Snapshot()
		c.batches += float64(s.Batches)
		c.batchedRows += float64(s.BatchedRows)
		c.rejected += float64(s.Rejected)
	}
	if t.router != nil {
		s := t.router.Metrics()
		c.requests, c.failovers = float64(s.Requests), float64(s.Failovers)
	}
	return c
}

// close stops the router, then the backends (Server.Shutdown also drains
// and closes the registry). Idle client connections go first: a server's
// graceful shutdown otherwise waits for them.
func (t *httpTarget) close(ctx context.Context) error {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	var first error
	if t.router != nil {
		first = t.router.Shutdown(ctx)
	}
	for _, srv := range t.servers {
		if err := srv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
