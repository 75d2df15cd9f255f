package selftest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// node targets a single radixserve instance, which exports its own
// histograms.
func node(client *http.Client, url, model string) target {
	return target{Client: serve.Client{URL: url, HTTP: client}, model: model,
		latencyFamily:   serve.MetricRequestLatency,
		queueWaitFamily: serve.MetricQueueWait}
}

// postReq sends one inference request (any rows, class, deadline) for the
// target's model and returns the HTTP status, the answering backend id (the
// router's X-Radix-Backend header; empty against a single node) and the
// decoded response (valid only for status 200).
func postReq(ctx context.Context, tg target, req serve.InferRequest) (int, string, serve.InferResponse, error) {
	var out serve.InferResponse
	req.Model = tg.model
	body, err := json.Marshal(req)
	if err != nil {
		return 0, "", out, err
	}
	status, hdr, err := post(ctx, tg, body, "", &out)
	return status, hdr.Get("X-Radix-Backend"), out, err
}

// postRow sends one single-row inference request for the target's model.
func postRow(ctx context.Context, tg target, row []float64) (int, string, serve.InferResponse, error) {
	return postReq(ctx, tg, serve.InferRequest{Inputs: [][]float64{row}})
}

// percentile returns the p-th percentile (0–100) of the latencies.
func percentile(lat []time.Duration, p int) time.Duration {
	s := slices.Sorted(slices.Values(lat))
	idx := (len(s) * p) / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// exemplarTraceIDs returns the trace IDs of the exemplars on the model's
// buckets of histogram family f, in le order.
func exemplarTraceIDs(sc *obs.Scrape, f *obs.Family, model string) []string {
	var ids []string
	for _, hs := range obs.MergeHist(f, nil, []obs.Label{{Name: "model", Value: model}}, sc) {
		for _, e := range hs.Hist.Exemplars {
			if e.TraceID != "" {
				ids = append(ids, e.TraceID)
			}
		}
	}
	return ids
}

// histWindow reads one histogram family out of two /metrics scrapes and
// returns the after-minus-before window, so only the traffic between the
// scrapes counts. Without a where filter every label set of the family
// merges. The family may be absent from the before scrape (nothing
// observed yet) but must be present after. Log-bucketed: quantiles carry
// at most 2× resolution error.
func histWindow(before, after *obs.Scrape, f *obs.Family, where ...obs.Label) (obs.ScrapedHist, error) {
	ha := obs.MergeHist(f, nil, where, after)
	if len(ha) == 0 {
		return obs.ScrapedHist{}, fmt.Errorf("%s%v missing from /metrics", f.Name(), where)
	}
	if hb := obs.MergeHist(f, nil, where, before); len(hb) > 0 {
		return ha[0].Hist.Sub(hb[0].Hist), nil
	}
	return ha[0].Hist, nil
}

// checkRow is the per-row oracle check: one single-row request must answer
// 200 with one output row bit-identical to want and, when owners is
// non-nil, come from one of those backends (routing pinned to the ring
// placement). It returns an error rather than failing the test, so load
// goroutines can call it.
func checkRow(ctx context.Context, tg target, row, want []float64, owners []string) error {
	status, by, resp, err := postRow(ctx, tg, row)
	if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
		return fmt.Errorf("%s: status %d err %v", tg.model, status, err)
	}
	if owners != nil && !slices.Contains(owners, by) {
		return fmt.Errorf("%s: answered by %q, not an owner %v", tg.model, by, owners)
	}
	return sameRow(resp.Outputs[0], want)
}

// sameRow requires got bit-identical to the per-row Engine.Infer output.
func sameRow(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output width %d, want %d", len(got), len(want))
	}
	for c, v := range got {
		if v != want[c] {
			return fmt.Errorf("col %d: got %v want %v (not bit-identical to direct Engine.Infer)", c, v, want[c])
		}
	}
	return nil
}

// failures counts the errors concurrent load workers hit and keeps the
// first for the report.
type failures struct {
	mu    sync.Mutex
	n     int
	first error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n++; f.first == nil {
		f.first = err
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// bitIdentityPhase sends every row of in once, sequentially, and requires
// each reply bit-identical to per-row Engine.Infer and — through a router,
// where owners is the model's ring placement — answered only by an owner.
func bitIdentityPhase(t *testing.T, tg target, in *sparse.Dense, expected [][]float64, owners []string) {
	t.Helper()
	for r := 0; r < in.Rows(); r++ {
		if err := checkRow(t.Context(), tg, in.RowSlice(r), expected[r], owners); err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
	}
}

// concurrencyPhase drives the target from 1, 4 and 16 concurrent closed-loop
// clients, rows spread round-robin over models so a whole fleet carries
// load, and requires every reply bit-identical to per-row Engine.Infer:
// batching rows from different clients into one engine call must never
// change a result. Each level's tail latency is then read back from the
// exported latency histogram, windowed to the level by a before/after
// scrape: the window must hold exactly the level's requests (a broken
// bucket-wise fleet merge miscounts) and its p99 must be plausible.
func concurrencyPhase(t *testing.T, tg target, models []string, in *sparse.Dense, expected [][]float64) {
	t.Helper()
	ctx := t.Context()
	baseRows := in.Rows()
	// One model windows its own series; several merge across all of them
	// (no label filter) — the level spread its rows over every one.
	var want []obs.Label
	if len(models) == 1 {
		want = []obs.Label{{Name: "model", Value: models[0]}}
	}
	for _, conc := range []int{1, 4, 16} {
		rows := baseRows * len(models) * conc
		before, err := tg.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var next atomic.Int64
		var failed failures
		var wg sync.WaitGroup
		for c := 0; c < conc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= rows {
						return
					}
					r := i % baseRows
					if err := checkRow(ctx, tg.forModel(models[i%len(models)]), in.RowSlice(r), expected[r], nil); err != nil {
						failed.add(fmt.Errorf("row %d: %w", i, err))
						return
					}
				}
			}()
		}
		wg.Wait()
		if failed.n > 0 {
			t.Fatalf("concurrency %d: %d failures (first: %v)", conc, failed.n, failed.first)
		}
		after, err := tg.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		win, err := histWindow(before, after, tg.latencyFamily, want...)
		if err != nil {
			t.Fatalf("concurrency %d: %v", conc, err)
		}
		if win.Count != uint64(rows) {
			t.Fatalf("concurrency %d: exported latency histogram window counts %d requests, want %d",
				conc, win.Count, rows)
		}
		p99 := win.Quantile(0.99) * 1e3
		if p99 <= 0 || p99 > 20e3 {
			t.Fatalf("concurrency %d: exported latency p99 %.3fms implausible", conc, p99)
		}
		t.Logf("concurrency %2d: %d rows bit-identical (exported p50 %.2fms p99 %.2fms)",
			conc, rows, win.Quantile(0.50)*1e3, p99)
	}
}

// reloads is how many hot-reloads controlPlanePhase races against load; the
// model's engine-pool generation afterwards is 1+reloads on every replica
// (the registration's 1, plus one per reload).
const reloads = 3

// controlPlanePhase exercises the live model control plane end to end:
// register the target's model at runtime from graphio config JSON (on a
// router: on its ring-intended replicas), prove its outputs bit-identical to
// per-row Engine.Infer — and so to a boot-time registration of the same
// config — answered only by owners, then hot-reload it repeatedly under
// concurrent load with zero failed or bit-divergent requests. The model is
// left registered at generation 1+reloads for the caller's own checks;
// unregisterPhase removes it.
func controlPlanePhase(t *testing.T, tg target, cfg core.Config, engines int, in *sparse.Dense, expected [][]float64, owners []string) {
	t.Helper()
	ctx := t.Context()
	regBody, err := register(ctx, tg, cfg, engines)
	if err != nil {
		t.Fatalf("control plane: %v", err)
	}
	bitIdentityPhase(t, tg, in, expected, owners)
	rows := in.Rows()
	t.Logf("control plane: runtime-registered %q bit-identical to direct Engine.Infer (%d rows)", tg.model, rows)

	// Hot-reload under concurrent load: every request across every swap
	// must succeed and stay bit-identical (same config, deterministic
	// generation → same weights in every pool generation).
	const loadWorkers = 4
	stop := make(chan struct{})
	var completed atomic.Int64
	var failed failures
	var wg sync.WaitGroup
	stopLoad := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopLoad()
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r := i % rows
				if err := checkRow(ctx, tg, in.RowSlice(r), expected[r], nil); err != nil {
					failed.add(fmt.Errorf("row %d mid-reload: %w", r, err))
					return
				}
				completed.Add(1)
			}
		}(w)
	}
	// Pace each swap against observed traffic so every reload genuinely
	// races in-flight requests.
	waitRows := func(target int64) {
		deadline := time.Now().Add(15 * time.Second)
		for completed.Load() < target && failed.count() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < reloads; i++ {
		waitRows(int64((i + 1) * 16))
		if status, err := tg.Reload(ctx, tg.model, regBody); err != nil || status != http.StatusOK {
			t.Fatalf("control plane: reload %d: status %d err %v", i, status, err)
		}
	}
	waitRows(int64((reloads + 1) * 16))
	stopLoad()
	requests := int(completed.Load()) + failed.n
	if failed.n > 0 {
		t.Fatalf("control plane: %d of %d requests failed across %d hot reloads (first: %v)",
			failed.n, requests, reloads, failed.first)
	}
	t.Logf("control plane: %d hot reloads raced %d requests, zero failures", reloads, requests)
}

// unregisterPhase removes the target's model (fleet-wide through a router)
// and requires inference against it to answer 404 afterwards.
func unregisterPhase(t *testing.T, tg target, row []float64) {
	t.Helper()
	ctx := t.Context()
	if status, err := tg.Unregister(ctx, tg.model); err != nil || status != http.StatusOK {
		t.Fatalf("control plane: unregister %s: status %d err %v", tg.model, status, err)
	}
	status, _, _, err := postRow(ctx, tg, row)
	if err != nil || status != http.StatusNotFound {
		t.Fatalf("control plane: infer after unregister: status %d err %v, want 404", status, err)
	}
	t.Logf("control plane: unregistered %q; inference now 404", tg.model)
}

// qosPhase is the starvation-freedom acceptance phase: measure interactive
// p99 latency on an idle target, saturate the same model with a background
// flood, and prove that (a) interactive traffic is not starved — its
// scheduler queue-wait p99 stays tightly bounded, and its end-to-end p99
// stays within 5× the unloaded value (with an absolute floor, because on
// small CI machines a saturating flood contends for the CPU itself, which no
// in-process scheduler can prevent — the queue-wait bound is the precise
// starvation signal, the end-to-end bound the gross one); and (b) the
// background class still makes progress (no starvation either way).
// Interactive responses under flood are also checked bit-identical, so
// priority scheduling never changes results, and the class annotation must
// come back on every response — through a router that is the body → router
// header → backend scheduler round trip.
func qosPhase(t *testing.T, tg target, serving []*serve.Model, in *sparse.Dense, expected [][]float64) {
	t.Helper()
	ctx := t.Context()
	baseRows := in.Rows()

	const probes = 200
	probe := func() (lat, qwait []time.Duration, err error) {
		lat = make([]time.Duration, 0, probes)
		qwait = make([]time.Duration, 0, probes)
		for i := 0; i < probes; i++ {
			r := i % baseRows
			start := time.Now()
			// A starved probe would wait as long as the flood lasts, and the
			// flood lasts until the probes end: bound each one.
			pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			status, _, resp, err := postReq(pctx, tg, serve.InferRequest{
				Class: serve.ClassInteractive, Inputs: [][]float64{in.RowSlice(r)},
			})
			cancel()
			if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
				return nil, nil, fmt.Errorf("qos: interactive probe %d: status %d err %v (starved behind the flood?)", i, status, err)
			}
			if resp.Class != serve.ClassInteractive {
				return nil, nil, fmt.Errorf("qos: probe %d scheduled as class %q, want %q (class lost in routing?)", i, resp.Class, serve.ClassInteractive)
			}
			if err := sameRow(resp.Outputs[0], expected[r]); err != nil {
				return nil, nil, fmt.Errorf("qos: probe %d diverged under priority scheduling: %w", i, err)
			}
			lat = append(lat, time.Since(start))
			qwait = append(qwait, time.Duration(resp.QueueWaitMs*float64(time.Millisecond)))
		}
		return lat, qwait, nil
	}

	unloaded, _, err := probe()
	if err != nil {
		t.Fatal(err)
	}

	// Saturating background flood: multi-row requests from several workers
	// (bodies pre-marshaled and replies discarded undecoded, so the flood's
	// pressure lands on the server's queues, not on client-side JSON),
	// shedding 429s with client-side pacing, until the phase ends. On its
	// own the smoke model drains a flood faster than HTTP delivers it, and
	// the background queue would empty between batches; so the serving
	// engines are throttled (throttleEngines) for the loaded window, and the
	// workers keep 256 rows in flight, more than the collectors hold. The
	// background queue then stays backlogged for many batches: a scheduler
	// that served background whenever it had rows would starve every probe.
	const (
		floodWorkers = 8
		rowsPerReq   = 32
	)
	stop := make(chan struct{})
	var bgRows atomic.Int64
	var bgFailed failures
	var wg sync.WaitGroup
	stopFlood := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopFlood()
	wg.Add(1)
	go func() {
		defer wg.Done()
		throttleEngines(serving, stop)
	}()
	for w := 0; w < floodWorkers; w++ {
		reqRows := make([][]float64, rowsPerReq)
		for i := range reqRows {
			reqRows[i] = in.RowSlice((w + i) % baseRows)
		}
		body, err := json.Marshal(serve.InferRequest{Model: tg.model, Class: serve.ClassBackground, Inputs: reqRows})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, _, err := post(ctx, tg, body, "", nil)
				switch {
				case err != nil:
					bgFailed.add(fmt.Errorf("qos: background flood: %w", err))
					return
				case status == http.StatusOK:
					bgRows.Add(rowsPerReq)
				case status == http.StatusTooManyRequests:
					// Backpressure. Background gets no router-side backoff by
					// design; the client owns the pacing and re-offers.
					time.Sleep(2 * time.Millisecond)
				default:
					bgFailed.add(fmt.Errorf("qos: background flood: status %d", status))
					return
				}
			}
		}()
	}
	// Let the flood saturate the queues before measuring.
	warmDeadline := time.Now().Add(10 * time.Second)
	for bgRows.Load() < rowsPerReq && bgFailed.count() == 0 && time.Now().Before(warmDeadline) {
		time.Sleep(time.Millisecond)
	}

	// Scrape /metrics before and after the loaded probe window: the
	// starvation assertion below must hold on the EXPORTED queue-wait
	// histogram — what an operator's dashboard would alert on — not on a
	// client-side tally.
	before, err := tg.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	loadedStart := time.Now()
	bgBefore := bgRows.Load()
	loaded, loadedWait, probeErr := probe()
	loadedElapsed := time.Since(loadedStart)
	bgDuring := bgRows.Load() - bgBefore
	after, scrapeErr := tg.Metrics(ctx)
	stopFlood()
	if probeErr != nil {
		t.Fatal(probeErr)
	}
	if bgFailed.first != nil {
		t.Fatal(bgFailed.first)
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}

	p99u := percentile(unloaded, 99)
	p99l := percentile(loaded, 99)
	// The precise starvation signal: time interactive rows sat in the
	// scheduler's queues, read back from the exported per-model×class
	// histogram windowed to the loaded probe interval. With weight 8
	// against a saturated background queue, an interactive row rides one
	// of the next couple of batches; 25ms is orders of magnitude above
	// that but far below what a starved row (behind hundreds of queued
	// background rows) would see. The probes' own client-side tally only
	// annotates the failure message.
	win, err := histWindow(before, after, tg.queueWaitFamily,
		obs.Label{Name: "model", Value: tg.model}, obs.Label{Name: "class", Value: serve.ClassInteractive})
	if err != nil {
		t.Fatalf("qos: %v", err)
	}
	if win.Count == 0 {
		t.Fatalf("qos: exported queue-wait histogram recorded no interactive rows in the loaded window")
	}
	waitP99 := time.Duration(win.Quantile(0.99) * float64(time.Second))
	if waitBound := 25 * time.Millisecond; waitP99 > waitBound {
		t.Fatalf("qos: exported interactive queue-wait p99 %v (%d samples; client-observed %v) under background flood exceeds %v: interactive traffic starved in the scheduler",
			waitP99.Round(time.Microsecond), win.Count, percentile(loadedWait, 99).Round(time.Microsecond), waitBound)
	}
	bound := 5 * p99u
	if floor := 100 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99l > bound {
		t.Fatalf("qos: interactive p99 %v under background flood exceeds bound %v (5× unloaded %v): interactive traffic starved",
			p99l.Round(time.Microsecond), bound, p99u.Round(time.Microsecond))
	}
	if bgDuring == 0 {
		t.Fatalf("qos: background completed no rows during the %v probe window: background starved", loadedElapsed.Round(time.Millisecond))
	}
	t.Logf("qos: interactive p99 %v unloaded → %v under background flood (bound %v, exported queue-wait p99 %v); background completed %d rows meanwhile, no starvation",
		p99u.Round(time.Microsecond), p99l.Round(time.Microsecond), bound, waitP99.Round(time.Microsecond), bgDuring)
}

// throttleEngines makes the serving models' engines the bottleneck until
// stop is closed: it holds every engine for a millisecond at a time, and
// between holds each collector already waiting for an engine runs one
// batch (a released engine goes to the longest waiter, and the next lease
// here queues behind the collectors).
func throttleEngines(serving []*serve.Model, stop <-chan struct{}) {
	type lease struct {
		m   *serve.Model
		eng *infer.Engine
	}
	var held []lease
	for {
		for _, m := range serving {
			n, _ := m.PoolStats()
			for range n {
				held = append(held, lease{m, m.Lease()})
			}
		}
		select {
		case <-stop:
		case <-time.After(time.Millisecond):
		}
		for _, l := range held {
			l.m.Release(l.eng)
		}
		held = held[:0]
		select {
		case <-stop:
			return
		default:
		}
	}
}

// tracesView is the GET /debug/traces listing both tiers answer.
type tracesView struct {
	Total  uint64       `json:"total"`
	Recent []*obs.Trace `json:"recent"`
}

// obsPhase smokes the observability surface end to end: the tier mints a
// 32-hex trace ID for a request that carries none; an explicit
// X-Radix-Trace-Id round-trips client → (router → backend →) response,
// header and body; the serving node's full span breakdown (admission, queue,
// assemble, lease, execute, deliver) rides the response; the trace is
// retained with its spans in GET /debug/traces; and the opt-in pprof
// endpoints answer. Returns the retained trace for tier-specific shape
// checks (a router's must be stitched).
func obsPhase(t *testing.T, tg target, row []float64) *obs.Trace {
	t.Helper()
	ctx := t.Context()
	status, _, minted, err := postRow(ctx, tg, row)
	if err != nil || status != http.StatusOK {
		t.Fatalf("obs: probe: status %d err %v", status, err)
	}
	if len(minted.TraceID) != 32 {
		t.Fatalf("obs: minted response trace ID %q, want 32 hex chars", minted.TraceID)
	}

	const traceID = "cafe0000cafe0000cafe0000cafe0000"
	body, err := json.Marshal(serve.InferRequest{Model: tg.model, Inputs: [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	var out serve.InferResponse
	status, hdr, err := post(ctx, tg, body, traceID, &out)
	if err != nil || status != http.StatusOK {
		t.Fatalf("obs: traced request: status %d err %v", status, err)
	}
	if got := hdr.Get(obs.HeaderTraceID); got != traceID {
		t.Fatalf("obs: response trace header %q, want %q", got, traceID)
	}
	if out.TraceID != traceID {
		t.Fatalf("obs: response body trace ID %q, want %q (header lost in forwarding?)", out.TraceID, traceID)
	}
	names := make(map[string]bool, len(out.Spans))
	for _, s := range out.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"admission", "queue", "assemble", "lease", "execute", "deliver"} {
		if !names[want] {
			t.Fatalf("obs: span %q missing from response: %+v", want, out.Spans)
		}
	}

	// Both tiers retain a reply's trace by the time its last byte arrives
	// (the retention contract in serve's and cluster's package docs), so
	// one listing must hold it.
	var found *obs.Trace
	var view tracesView
	if err := tg.GetJSON(ctx, "/debug/traces?n=16", &view); err != nil {
		t.Fatalf("obs: /debug/traces: %v", err)
	}
	for _, tr := range view.Recent {
		if tr.ID == traceID && len(tr.Spans) >= 5 {
			found = tr
		}
	}
	if found == nil {
		t.Fatalf("obs: trace %s not retained with spans in /debug/traces (%d total)", traceID, view.Total)
	}

	if err := tg.GetJSON(ctx, "/debug/pprof/cmdline", nil); err != nil {
		t.Fatalf("obs: pprof cmdline: %v", err)
	}
	t.Logf("obs: trace %s round-tripped with %d spans, retained in /debug/traces (%d total); pprof live",
		traceID, len(out.Spans), view.Total)
	return found
}

// exemplarSLOPhase exercises the deep observability surface on top of the
// trace smoke: histogram exemplars on the (fleet-merged) latency buckets
// must resolve to retained traces via GET /debug/traces?trace=, the
// ?min_ms= filter must answer JSON, and the SLO engine (fleet-evaluated on
// a router) must report a deliberately breached 1µs objective on the
// target's model as "violated" and a loose 10s one as "ok". The caller arms
// both objectives when it builds the tier.
func exemplarSLOPhase(t *testing.T, tg target, in *sparse.Dense) {
	t.Helper()
	ctx := t.Context()
	// Fresh probes so the latency buckets carry recent exemplars whose
	// traces are still in the /debug/traces ring.
	for i := 0; i < 4; i++ {
		status, _, _, err := postRow(ctx, tg, in.RowSlice(i))
		if err != nil || status != http.StatusOK {
			t.Fatalf("deep-obs: probe %d: status %d err %v", i, status, err)
		}
	}
	scrape, err := tg.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids := exemplarTraceIDs(scrape, tg.latencyFamily, tg.model)
	if len(ids) == 0 {
		t.Fatalf("deep-obs: no exemplar annotations on %s buckets", tg.latencyFamily.Name())
	}
	// Exemplars name the most recent request per bucket; old buckets may
	// reference traces the ring has since evicted, so any one resolving
	// proves the jump path.
	resolved := ""
	for _, id := range ids {
		var view struct {
			Trace *obs.Trace `json:"trace"`
		}
		if err := tg.GetJSON(ctx, "/debug/traces?trace="+id, &view); err != nil {
			continue
		}
		if view.Trace != nil && view.Trace.ID == id && len(view.Trace.Spans) > 0 {
			resolved = id
			break
		}
	}
	if resolved == "" {
		t.Fatalf("deep-obs: none of %d exemplar trace IDs resolved via /debug/traces?trace=", len(ids))
	}
	// The ?min_ms= filter: an absurd threshold must still answer JSON,
	// just with everything filtered out.
	var filtered tracesView
	if err := tg.GetJSON(ctx, "/debug/traces?min_ms=1e9&n=4", &filtered); err != nil {
		t.Fatalf("deep-obs: ?min_ms=1e9: %v", err)
	}
	if filtered.Total == 0 || len(filtered.Recent) != 0 {
		t.Fatalf("deep-obs: ?min_ms=1e9 returned %d of %d traces, want 0", len(filtered.Recent), filtered.Total)
	}

	// The SLO engine: the 1µs objective is unmeetable, so with the whole
	// process lifetime inside both burn windows it must read "violated";
	// the 10s objective must stay "ok".
	var view slo.View
	if err := tg.GetJSON(ctx, "/v1/slo", &view); err != nil {
		t.Fatalf("deep-obs: /v1/slo: %v", err)
	}
	var breached, loose *slo.Status
	for i := range view.Statuses {
		st := &view.Statuses[i]
		if st.Model != tg.model || st.Class != "" {
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
		t.Fatalf("deep-obs: /v1/slo missing objectives for %s (%d statuses)", tg.model, len(view.Statuses))
	}
	if breached.State != slo.StateViolated {
		t.Fatalf("deep-obs: unmeetable 1µs objective reports %q (fast burn %.2f, slow %.2f), want %q",
			breached.State, breached.FastBurn, breached.SlowBurn, slo.StateViolated)
	}
	if loose.State != slo.StateOK {
		t.Fatalf("deep-obs: loose 10s objective reports %q (fast burn %.2f), want %q",
			loose.State, loose.FastBurn, slo.StateOK)
	}
	t.Logf("deep-obs: exemplar trace %s resolved via ?trace=; /v1/slo: 1µs objective %s (fast burn %.1f), 10s objective %s",
		resolved, breached.State, breached.FastBurn, loose.State)
}

// profilePhase checks the engine layer profiler against traffic whose
// shape is known exactly: a dedicated model whose engines each get a
// single-worker pool (engines == GOMAXPROCS makes the per-engine quota 1),
// driven with full 64-row batches, every batch profiled (the caller sets
// the registry's profile period to 1). The tallies must satisfy the
// profiler's own accounting identities, which hold on any host (a
// throughput figure would not): per layer edges = rows × nnz and rows ≤
// batches × MaxBatch, every layer saw the same batches, and the per-layer
// kernel time sits inside the model's execute time.
func profilePhase(t *testing.T, tg target, reg *serve.Registry, cfg core.Config) {
	t.Helper()
	profPol := serve.Policy{MaxBatch: 64, MaxLatency: -1, QueueDepth: 256}
	pm, err := reg.RegisterWithPolicy(tg.model, cfg, runtime.GOMAXPROCS(0), profPol)
	if err != nil {
		t.Fatalf("profile: register profiled model: %v", err)
	}
	profIn, err := dataset.SparseBatch(64, pm.InputWidth(), pm.InputWidth()/10, 11)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]float64, profIn.Rows())
	for r := range inputs {
		inputs[r] = profIn.RowSlice(r)
	}
	for i := 0; i < 8; i++ {
		status, _, resp, err := postReq(t.Context(), tg, serve.InferRequest{Inputs: inputs})
		if err != nil || status != http.StatusOK || len(resp.Outputs) != len(inputs) {
			t.Fatalf("profile: batch %d: status %d outputs %d err %v", i, status, len(resp.Outputs), err)
		}
	}
	snap, ok := pm.Profile()
	if !ok {
		t.Fatal("profile: profiled model reports no profile")
	}
	info := pm.Info()
	if len(snap.Layers) != info.Layers {
		t.Fatalf("profile: profile has %d layers, model %d", len(snap.Layers), info.Layers)
	}
	if snap.Batches == 0 || snap.TotalEdges == 0 || snap.GedgesPerSec <= 0 {
		t.Fatalf("profile: empty profile after traffic: %+v", snap)
	}
	for _, l := range snap.Layers {
		if l.Batches != snap.Batches || l.Rows == 0 || l.GedgesPerSec <= 0 {
			t.Fatalf("profile: layer %d saw %d of %d batches, %d rows: %+v", l.Layer, l.Batches, snap.Batches, l.Rows, l)
		}
		if l.Edges != l.Rows*int64(l.NNZ) || l.Rows > l.Batches*int64(profPol.MaxBatch) {
			t.Fatalf("profile: layer %d accounting broken (edges = rows × nnz, rows <= batches × %d): %+v", l.Layer, profPol.MaxBatch, l)
		}
	}
	if execNs := pm.Metrics().ExecHist.Snapshot().Sum; snap.TotalNs > execNs {
		t.Fatalf("profile: layers sum to %dns of kernel time, more than the model's %dns of execute time", snap.TotalNs, execNs)
	}
	t.Logf("profile: %d batches × %d layers profiled; edges = rows × nnz per layer, kernel time inside execute time",
		snap.Batches, len(snap.Layers))
}

// stitchedTracePhase checks what only a router trace has, on the trace
// obsPhase found: its own route/attempt spans with backend attribution,
// stitched with the backend's per-stage spans.
func stitchedTracePhase(t *testing.T, found *obs.Trace) {
	t.Helper()
	hasRoute := false
	var attempt, queue, execute *obs.Span
	for i := range found.Spans {
		s := &found.Spans[i]
		switch {
		case s.Name == "route":
			hasRoute = true
		case strings.HasPrefix(s.Name, "attempt:"):
			attempt = s
		case s.Name == "queue":
			queue = s
		case s.Name == "execute":
			execute = s
		}
	}
	if !hasRoute || attempt == nil || found.Backend == "" {
		t.Fatalf("obs: router trace missing route/attempt spans or backend attribution: %+v", found)
	}
	// The stitched view: the backend's own spans ride the X-Radix-Spans
	// response header and are grafted under the router's attempt span,
	// rebased to the router's clock — so one trace shows both tiers with
	// consistent offsets (backend work cannot start before the attempt).
	if queue == nil || execute == nil {
		t.Fatalf("obs: router trace not stitched — backend queue/execute spans missing: %+v", found.Spans)
	}
	const slack = 1e-3 // ms; offsets are rendered at µs resolution
	if queue.StartMs < attempt.StartMs-slack || execute.StartMs < queue.StartMs-slack {
		t.Fatalf("obs: stitched span offsets not monotonic: attempt %.3fms, queue %.3fms, execute %.3fms",
			attempt.StartMs, queue.StartMs, execute.StartMs)
	}
	if end := execute.StartMs + execute.DurMs; end > found.TotalMs+slack {
		t.Fatalf("obs: stitched execute span ends at %.3fms, beyond the trace total %.3fms", end, found.TotalMs)
	}
	t.Logf("obs: router trace stitched: route+attempt+queue+execute with monotonic offsets")
}

// engineProfilePhase requires the backend engine profiles to surface
// through the router's merged /metrics exposition, backend-labeled (the
// backends profile every batch).
func engineProfilePhase(t *testing.T, tg target) {
	t.Helper()
	scrape, err := tg.Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	series := 0
	for i := range scrape.Samples {
		sm := &scrape.Samples[i]
		if _, labeled := sm.Label("backend"); labeled && sm.Name == serve.MetricEngineGedges.Name() && sm.Value > 0 {
			series++
		}
	}
	if series == 0 {
		t.Fatalf("fleet-obs: no positive backend-labeled %s series in the merged exposition", serve.MetricEngineGedges.Name())
	}
	t.Logf("fleet-obs: %d backend engine profiles surface through the merged exposition", series)
}

// failoverPhase kills a backend mid-load. Every request must still
// succeed: in-flight rows drain through the dying node's graceful shutdown,
// and everything after fails over to the surviving replica. Zero failures
// is the acceptance bar.
func failoverPhase(t *testing.T, tg target, rt *cluster.Router, fleet *nodeFleet, in *sparse.Dense, expected [][]float64) {
	t.Helper()
	ctx := t.Context()
	victim := rt.Placement(tg.model)[0]
	const (
		floodWorkers  = 8
		floodRequests = 400
		killAfter     = floodRequests / 4
	)
	var sent, killed atomic.Int64
	var failed failures
	var wg sync.WaitGroup
	killGate := make(chan struct{})
	for w := 0; w < floodWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := sent.Add(1)
				if i > floodRequests {
					return
				}
				if i == killAfter {
					close(killGate)
				}
				r := int(i) % in.Rows()
				if err := checkRow(ctx, tg, in.RowSlice(r), expected[r], nil); err != nil {
					failed.add(fmt.Errorf("request %d: %w", i, err))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killGate
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_ = fleet.srvs[victim].Shutdown(sctx) // the point is killing it
		killed.Store(1)
	}()
	wg.Wait()
	if killed.Load() != 1 {
		t.Fatal("failover phase never killed the backend (load too short?)")
	}
	failovers := rt.Metrics().Failovers
	if failed.n > 0 {
		t.Fatalf("failover: %d of %d requests failed after killing %s (first: %v)",
			failed.n, floodRequests, victim, failed.first)
	}
	if failovers == 0 {
		t.Fatalf("failover: backend %s killed mid-load but the router never failed over", victim)
	}
	t.Logf("failover: killed %s after %d requests; %d/%d succeeded (%d failover retries), zero failures",
		victim, killAfter, floodRequests, floodRequests, failovers)
}
