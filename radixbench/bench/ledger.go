package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// PerLayer are the metrics a traced run reports on every workload. Most
// describe a fixed fixture — the probes and the nested-call chain below — and
// so read the same whichever workload was asked for; the client.*, process.*,
// trace.* and host.spin_ms values, and the serve.*/cluster.* counters and
// stage spans of a workload that has that tier, describe the workload's own
// measured phase (see Result.workloadLayers).
var PerLayer = []MetricDef{
	{"sparse.gather8_ns_per_edge", "ns", "lower"},
	{"sparse.gather1_ns_per_edge", "ns", "lower"},
	{"sparse.scatter1_ns_per_edge", "ns", "lower"},
	{"sparse.csc_gather_ns_per_edge", "ns", "lower"},
	{"sparse.bytes_per_edge", "B", "lower"},
	{"sparse.roofline_share", "ratio", "higher"},
	{"sparse.plan_compile_ms", "ms", "lower"},
	{"sparse.kernel_build_ms", "ms", "lower"},
	{"host.copy_gbps", "GB/s", "higher"},
	{"host.spin_ms", "ms", "lower"},
	{"infer.batch64_ms", "ms", "lower"},
	{"infer.gedges_per_s", "G/s", "higher"},
	{"infer.kernel_share", "ratio", "higher"},
	{"infer.engine_self_us", "us", "lower"},
	{"infer.row1_us", "us", "lower"},
	{"infer.batch16_ms", "ms", "lower"},
	{"infer.allocs_per_op", "count", "lower"},
	{"infer.build_ms", "ms", "lower"},
	{"infer.clone_ms", "ms", "lower"},
	{"infer.active_row_share", "ratio", "higher"},
	{"parallel.run_overhead_us", "us", "lower"},
	{"parallel.speedup", "ratio", "higher"},
	{"core.build_ms", "ms", "lower"},
	{"core.edges", "count", "lower"},
	{"core.density", "ratio", "lower"},
	{"serve.http_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.do_us", "us", "lower"},
	{"serve.transport_self_us", "us", "lower"},
	{"serve.codec_self_us", "us", "lower"},
	{"serve.batcher_self_us", "us", "lower"},
	{"serve.queue_us", "us", "lower"},
	{"serve.assemble_us", "us", "lower"},
	{"serve.lease_us", "us", "lower"},
	{"serve.execute_us", "us", "lower"},
	{"serve.deliver_us", "us", "lower"},
	{"serve.mean_batch_rows", "count", "higher"},
	{"serve.req_bytes", "B", "lower"},
	{"serve.resp_bytes", "B", "lower"},
	{"serve.allocs_per_req", "count", "lower"},
	{"serve.alloc_kb_per_req", "KB", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.register_ms", "ms", "lower"},
	{"cluster.hop_us", "us", "lower"},
	{"cluster.handler_us", "us", "lower"},
	{"cluster.ring_owners_ns", "ns", "lower"},
	{"cluster.attempts_per_req", "count", "lower"},
	{"cluster.alloc_kb_per_req", "KB", "lower"},
	{"obs.observe_ns", "ns", "lower"},
	{"obs.spans_codec_us", "us", "lower"},
	{"obs.trace_add_ns", "ns", "lower"},
	{"client.encode_us", "us", "lower"},
	{"client.decode_us", "us", "lower"},
	{"client.alloc_kb_per_row", "KB", "lower"},
	{"client.latency_p90_ms", "ms", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"client.latency_tail_ms", "ms", "lower"},
	{"client.latency_tail_pct", "%", "higher"},
	{"client.latency_samples", "count", "higher"},
	{"client.lateness_p99_ms", "ms", "lower"},
	{"client.window_rate_spread", "ratio", "lower"},
	{"client.unattributed_us", "us", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"process.cpu_us_per_row", "us", "lower"},
	{"process.mallocs_per_row", "count", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
}

// Ledger sizes: fixed counts, like every other count in the benchmark.
const (
	ledgerWarmup = 200 // round trips before the chain is timed
	ledgerIters  = 300 // timed chain iterations per tier
	ledgerBlock  = 25  // consecutive iterations a tier runs before the other takes over
	ledgerAlloc  = 300 // round trips per allocation measurement
)

// ledger collects the fixture's per-layer metrics.
type ledger struct {
	metrics map[string]Metric
	flags   []string
	spans   []Span
}

func (l *ledger) put(name string, v float64, unit string) {
	l.metrics[name] = Metric{Value: v, Unit: unit}
}

// clampFlag notes that a whole − parts difference came out negative and was
// reported as 0.
func (l *ledger) clampFlag(name string, clamped bool) {
	if clamped {
		l.flags = append(l.flags, name+": parts exceeded the whole; clamped to 0")
	}
}

// self records whole − parts under name.
func (l *ledger) self(name, unit string, whole, parts float64) float64 {
	d, clamped := Sub(whole, parts)
	l.clampFlag(name, clamped)
	l.put(name, d, unit)
	return d
}

// recorder is the smallest http.ResponseWriter: enough to call a handler
// without a connection, which is what separates transport from codec.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.status = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// serveHandler calls h with body as a POST /v1/infer, without a network.
func serveHandler(ctx context.Context, h http.Handler, body []byte) (*recorder, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/infer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rec := &recorder{header: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(rec, req)
	return rec, nil
}

// runLedger prices every layer on a fixed fixture: the micro-probes, then
// the nested-call chain on the 512-wide single-row model. One request in
// flight, so the stages are sequential and their costs must add up.
//
// The chain takes each input row through nested public entry points: the
// full client operation (encode, HTTP round trip, decode and verify) ⊃
// Server.Handler().ServeHTTP on a recorder ⊃ Model.Do ⊃ Engine.Infer on a
// leased engine. Every call's output is verified. A layer's self time is its
// call's median minus the median of the call nested inside it. The router
// chain adds the hop: the same operation through Router, and
// Router.Handler().ServeHTTP on a recorder.
func runLedger(ctx context.Context, seed int64, env Env) (_ *ledger, err error) {
	l := &ledger{metrics: map[string]Metric{}}
	if err := probeSparse(l, env); err != nil {
		return nil, err
	}
	if err := probeInfer(l, seed); err != nil {
		return nil, err
	}
	if err := probeObs(l); err != nil {
		return nil, err
	}

	cfg, err := Row512Config()
	if err != nil {
		return nil, err
	}
	in, err := NewInputs(cfg, seed)
	if err != nil {
		return nil, err
	}
	spec := Spec{Name: "ledger", Model: Row512Config, Engines: 2, RowsPerOp: 1}
	tr := NewTracer(time.Now())

	// Both tiers stay up and take turns in blocks of ledgerBlock rows, so
	// host drift lands on both sides of the router-minus-serve subtraction.
	// Within a block each entry point is called for all the rows back to
	// back, as the closed-loop workloads call it: round trips interleaved
	// with the inner calls answered a quarter slower, because the server's
	// goroutines had gone to sleep in between.
	var tiers [2]*tier
	for i, routed := range []bool{false, true} {
		tt, oerr := openTier(ctx, spec, in, routed)
		if oerr != nil {
			return nil, oerr
		}
		defer func() {
			if cerr := tt.t.close(ctx); cerr != nil && err == nil {
				err = fmt.Errorf("bench: ledger tear down: %w", cerr)
			}
		}()
		tiers[i] = tt
	}
	direct, routed := tiers[0], tiers[1]
	for b := 0; b < ledgerIters; b += ledgerBlock {
		for _, tt := range tiers {
			if err := tt.block(ctx, b, tr); err != nil {
				return nil, err
			}
		}
	}
	dc, rc := direct.t.counters().sub(direct.before), routed.t.counters().sub(routed.before)
	srv, cli, err := direct.allocs(ctx)
	if err != nil {
		return nil, err
	}
	rt, _, err := routed.allocs(ctx)
	if err != nil {
		return nil, err
	}
	l.spans = tr.Spans()

	med := map[string]float64{}
	for name, d := range DurationsByName(l.spans) {
		med[name] = Median(d)
	}
	l.put("serve.http_us", med["ledger.serve.http"], "us")
	l.put("serve.handler_us", med["ledger.serve.handler"], "us")
	l.put("serve.do_us", med["ledger.serve.do"], "us")
	l.put("infer.row1_us", med["ledger.infer.engine"], "us")
	l.put("client.encode_us", med["ledger.client.encode"], "us")
	l.put("client.decode_us", med["ledger.client.decode"], "us")
	for _, stage := range serveStages {
		l.put("serve."+stage+"_us", med["ledger.serve."+stage], "us")
	}
	l.self("serve.transport_self_us", "us", med["ledger.serve.http"], med["ledger.serve.handler"])
	l.self("serve.codec_self_us", "us", med["ledger.serve.handler"], med["ledger.serve.do"])
	l.self("serve.batcher_self_us", "us", med["ledger.serve.do"], med["ledger.infer.engine"])
	// The operation's own self time: what encode, round trip and decode do
	// not cover. Taken per iteration — medians do not add, residuals do.
	residual, clamped := SelfUs(l.spans, "ledger.serve.op")
	l.clampFlag("client.unattributed_us", clamped > 0)
	l.put("client.unattributed_us", Median(residual), "us")
	l.self("cluster.hop_us", "us", med["ledger.cluster.http"], med["ledger.serve.http"])
	l.put("cluster.handler_us", med["ledger.cluster.handler"], "us")

	l.put("serve.req_bytes", direct.reqBytes, "B")
	l.put("serve.resp_bytes", direct.respBytes, "B")
	l.put("serve.register_ms", direct.t.registerMs, "ms")
	l.put("serve.mean_batch_rows", dc.batchedRows/dc.batches, "count")
	l.put("serve.rejected", dc.rejected, "count")
	l.put("cluster.attempts_per_req", (rc.requests+rc.failovers)/rc.requests, "count")
	// Client and server share the process, so a tier's allocation is what a
	// round trip through it costs beyond the tier below.
	l.put("client.alloc_kb_per_row", cli.allocBytes/1024, "KB")
	l.self("serve.alloc_kb_per_req", "KB", srv.allocBytes/1024, cli.allocBytes/1024)
	l.self("serve.allocs_per_req", "count", srv.mallocs, cli.mallocs)
	l.self("cluster.alloc_kb_per_req", "KB", rt.allocBytes/1024, srv.allocBytes/1024)
	return l, nil
}

// tier is the ledger's fixture for one tier: serve alone, or the router in
// front of two backends.
type tier struct {
	name   string // "ledger.serve" or "ledger.cluster"
	routed bool
	t      *httpTarget
	in     *Inputs
	before counters

	reqBytes, respBytes float64 // mean over the timed iterations
}

// openTier builds and warms one tier's fixture.
func openTier(ctx context.Context, spec Spec, in *Inputs, routed bool) (*tier, error) {
	cfg, err := spec.Model()
	if err != nil {
		return nil, err
	}
	tt := &tier{name: "ledger.serve", routed: routed, in: in}
	if routed {
		tt.name = "ledger.cluster"
	}
	if tt.t, err = newHTTPTarget(ctx, cfg, in, spec, routed); err != nil {
		return nil, err
	}
	// The stage spans come from Model.Do's Response, not from the reply
	// body, so each is sampled once per iteration.
	tt.t.names = spanNames{encode: "ledger.client.encode", http: tt.name + ".http", decode: "ledger.client.decode"}
	for i := 0; i < ledgerWarmup; i++ {
		if !tt.t.do(ctx, 0, i, nil) {
			_ = tt.t.close(ctx) // the failed request is the error worth reporting
			return nil, tt.fail("warm-up request", i)
		}
	}
	tt.before = tt.t.counters()
	return tt, nil
}

func (tt *tier) fail(what string, i int) error {
	return fmt.Errorf("bench: ledger: %s %d on the %s tier failed or returned a wrong word", what, i, tt.name)
}

// block takes input rows first … first+ledgerBlock−1 through the tier's
// nested entry points, one entry point at a time. Row i's inner call names
// the span of row i's outer call as its parent.
func (tt *tier) block(ctx context.Context, first int, tr *Tracer) error {
	t, in := tt.t, tt.in
	req := func(i int) int64 {
		if tt.routed {
			return int64(i + ledgerIters) // the two tiers' rows keep distinct identifiers
		}
		return int64(i)
	}
	var bodies [ledgerBlock][]byte
	var parent [ledgerBlock]int32

	for n := range parent {
		i := first + n
		root := tr.Start(tt.name+".op", 0, req(i))
		ex := t.roundTrip(ctx, 0, i%len(t.picks), tr, root, req(i))
		tr.End(root)
		if !ex.ok {
			return tt.fail("request", i)
		}
		tt.reqBytes += float64(len(ex.body)) / ledgerIters
		tt.respBytes += float64(len(ex.raw)) / ledgerIters
		bodies[n], parent[n] = ex.body, ex.httpSpan
	}

	h := t.servers[0].Handler()
	if tt.routed {
		h = t.router.Handler()
	}
	for n := range parent {
		i := first + n
		sp := tr.Start(tt.name+".handler", parent[n], req(i))
		rec, err := serveHandler(ctx, h, bodies[n])
		tr.End(sp)
		if err != nil {
			return err
		}
		if _, ok := t.decode(i%len(t.picks), rec.body.Bytes()); rec.status != http.StatusOK || !ok {
			return tt.fail("handler call", i)
		}
		parent[n] = sp
	}
	if tt.routed {
		return nil // below the router the chain is the serve tier's
	}

	m := t.models[0]
	for n := range parent {
		i := first + n
		k := i % len(t.picks)
		sp := tr.Start("ledger.serve.do", parent[n], req(i))
		resp, err := m.Do(ctx, &serve.Request{Rows: t.reqs[k]})
		tr.End(sp)
		if err != nil || len(resp.Outputs) != 1 || !in.Verify(t.picks[k][0], resp.Outputs[0]) {
			return tt.fail("Model.Do", i)
		}
		for _, s := range resp.Spans {
			tr.Add("ledger.serve."+s.Name, sp, req(i), msDur(s.StartMs), msDur(s.DurMs))
		}
		parent[n] = sp
	}

	eng := m.Lease()
	defer m.Release(eng)
	for n := range parent {
		i := first + n
		row := t.picks[i%len(t.picks)][0]
		one, err := sparse.DenseFromSlice(1, in.Width, in.Rows[row])
		if err != nil {
			return err
		}
		sp := tr.Start("ledger.infer.engine", parent[n], req(i))
		res, err := eng.Infer(one)
		tr.End(sp)
		if err != nil || !in.Verify(row, res.RowSlice(0)) {
			return tt.fail("Engine.Infer", i)
		}
	}
	return nil
}

// allocs measures allocation per round trip through the tier, and the
// client's own share of it: encode plus decode-and-verify of a canned reply,
// no server involved.
func (tt *tier) allocs(ctx context.Context) (roundTrip, client usage, err error) {
	t := tt.t
	var canned [][]byte
	for k := range t.picks {
		ex := t.roundTrip(ctx, 0, k, nil, 0, 0)
		if !ex.ok {
			return roundTrip, client, tt.fail("request", k)
		}
		canned = append(canned, ex.raw)
	}
	runtime.GC()
	u0 := readUsage()
	for i := 0; i < ledgerAlloc; i++ {
		if !t.do(ctx, 0, i, nil) {
			return roundTrip, client, tt.fail("request", i)
		}
	}
	u1 := readUsage()
	for i := 0; i < ledgerAlloc; i++ {
		k := i % len(t.picks)
		_, err := t.encode(k)
		if _, ok := t.decode(k, canned[k]); err != nil || !ok {
			return roundTrip, client, tt.fail("client-only pass", i)
		}
	}
	u2 := readUsage()
	return u1.sub(u0).per(ledgerAlloc), u2.sub(u1).per(ledgerAlloc), nil
}

func (u usage) per(n float64) usage {
	return usage{u.allocBytes / n, u.mallocs / n, u.gcCycles / n, u.gcPauseMs / n, u.cpuUs / n}
}
