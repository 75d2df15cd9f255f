package selftest

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// BitIdentityPhase sends every row of in once, sequentially, and requires
// each reply bit-identical to per-row Engine.Infer and — through a router,
// where owners is the model's ring placement — answered only by an owner.
func BitIdentityPhase(ctx context.Context, t Target, in *sparse.Dense, expected [][]float64, owners []string) error {
	for r := 0; r < in.Rows(); r++ {
		if err := CheckRow(ctx, t, in.RowSlice(r), expected[r], owners); err != nil {
			return fmt.Errorf("row %d: %w", r, err)
		}
	}
	return nil
}

// ConcurrencyPhase drives the target from 1, 4 and 16 concurrent closed-loop
// clients, rows spread round-robin over models so a whole fleet carries
// load, and requires every reply bit-identical to per-row Engine.Infer:
// batching rows from different clients into one engine call must never
// change a result. Each level's tail latency is then read back from the
// exported latency histogram, windowed to the level by a before/after
// scrape: the window must hold exactly the level's requests (a broken
// bucket-wise fleet merge miscounts) and its p99 must be plausible.
func ConcurrencyPhase(ctx context.Context, t Target, models []string, in *sparse.Dense, expected [][]float64) error {
	baseRows := in.Rows()
	// One model windows its own series; several merge across all of them
	// (no label filter) — the level spread its rows over every one.
	var want []obs.Label
	if len(models) == 1 {
		want = []obs.Label{{Name: "model", Value: models[0]}}
	}
	for _, conc := range []int{1, 4, 16} {
		rows := baseRows * len(models) * conc
		before, err := t.Metrics(ctx)
		if err != nil {
			return err
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
					if err := CheckRow(ctx, t.For(models[i%len(models)]), in.RowSlice(r), expected[r], nil); err != nil {
						failed.add(fmt.Errorf("row %d: %w", i, err))
						return
					}
				}
			}()
		}
		wg.Wait()
		if failed.n > 0 {
			return fmt.Errorf("concurrency %d: %d failures (first: %v)", conc, failed.n, failed.first)
		}
		after, err := t.Metrics(ctx)
		if err != nil {
			return err
		}
		win, err := HistWindow(before, after, t.LatencyFamily, want...)
		if err != nil {
			return fmt.Errorf("concurrency %d: %w", conc, err)
		}
		if win.Count != uint64(rows) {
			return fmt.Errorf("concurrency %d: exported latency histogram window counts %d requests, want %d",
				conc, win.Count, rows)
		}
		p99 := win.Quantile(0.99) * 1e3
		if p99 <= 0 || p99 > 20e3 {
			return fmt.Errorf("concurrency %d: exported latency p99 %.3fms implausible", conc, p99)
		}
		log.Printf("concurrency %2d: %d rows bit-identical (exported p50 %.2fms p99 %.2fms)",
			conc, rows, win.Quantile(0.50)*1e3, p99)
	}
	return nil
}

// Reloads is how many hot-reloads ControlPlanePhase races against load; the
// model's engine-pool generation afterwards is 1+Reloads on every replica
// (the registration's 1, plus one per reload).
const Reloads = 3

// ControlPlanePhase exercises the live model control plane end to end:
// register the target's model at runtime from graphio config JSON (on a
// router: on its ring-intended replicas), prove its outputs bit-identical to
// per-row Engine.Infer — and so to a boot-time registration of the same
// config — answered only by owners, then hot-reload it repeatedly under
// concurrent load with zero failed or bit-divergent requests. The model is
// left registered at generation 1+Reloads for the caller's own checks;
// UnregisterPhase removes it.
func ControlPlanePhase(ctx context.Context, t Target, cfg core.Config, engines int, in *sparse.Dense, expected [][]float64, owners []string) error {
	regBody, err := Register(ctx, t, cfg, engines)
	if err != nil {
		return fmt.Errorf("control plane: %w", err)
	}
	if err := BitIdentityPhase(ctx, t, in, expected, owners); err != nil {
		return fmt.Errorf("control plane: runtime registration diverged: %w", err)
	}
	rows := in.Rows()
	log.Printf("control plane: runtime-registered %q bit-identical to direct Engine.Infer (%d rows)", t.Model, rows)

	// Hot-reload under concurrent load: every request across every swap
	// must succeed and stay bit-identical (same config, deterministic
	// generation → same weights in every pool generation).
	const loadWorkers = 4
	stop := make(chan struct{})
	var completed atomic.Int64
	var failed failures
	var wg sync.WaitGroup
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
				if err := CheckRow(ctx, t, in.RowSlice(r), expected[r], nil); err != nil {
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
	for i := 0; i < Reloads; i++ {
		waitRows(int64((i + 1) * 16))
		if status, err := t.Reload(ctx, t.Model, regBody); err != nil || status != http.StatusOK {
			close(stop)
			wg.Wait()
			return fmt.Errorf("control plane: reload %d: status %d err %v", i, status, err)
		}
	}
	waitRows(int64((Reloads + 1) * 16))
	close(stop)
	wg.Wait()
	requests := int(completed.Load()) + failed.n
	if failed.n > 0 {
		return fmt.Errorf("control plane: %d of %d requests failed across %d hot reloads (first: %v)",
			failed.n, requests, Reloads, failed.first)
	}
	log.Printf("control plane: %d hot reloads raced %d requests, zero failures", Reloads, requests)
	return nil
}

// UnregisterPhase removes the target's model (fleet-wide through a router)
// and requires inference against it to answer 404 afterwards.
func UnregisterPhase(ctx context.Context, t Target, row []float64) error {
	if status, err := t.Unregister(ctx, t.Model); err != nil || status != http.StatusOK {
		return fmt.Errorf("control plane: unregister %s: status %d err %v", t.Model, status, err)
	}
	status, _, _, err := PostRow(ctx, t, row)
	if err != nil || status != http.StatusNotFound {
		return fmt.Errorf("control plane: infer after unregister: status %d err %v, want 404", status, err)
	}
	log.Printf("control plane: unregistered %q; inference now 404", t.Model)
	return nil
}

// QoSPhase is the starvation-freedom acceptance phase: measure interactive
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
func QoSPhase(ctx context.Context, t Target, in *sparse.Dense, expected [][]float64) error {
	baseRows := in.Rows()

	const probes = 200
	probe := func() (lat, qwait []time.Duration, err error) {
		lat = make([]time.Duration, 0, probes)
		qwait = make([]time.Duration, 0, probes)
		for i := 0; i < probes; i++ {
			r := i % baseRows
			start := time.Now()
			status, _, resp, err := Post(ctx, t, serve.InferRequest{
				Class: serve.ClassInteractive, Inputs: [][]float64{in.RowSlice(r)},
			})
			if err != nil || status != http.StatusOK || len(resp.Outputs) != 1 {
				return nil, nil, fmt.Errorf("qos: interactive probe %d: status %d err %v", i, status, err)
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
		return err
	}

	// Saturating background flood: multi-row requests from several workers
	// (bodies pre-marshaled and replies discarded undecoded, so the flood's
	// pressure lands on the server's queues, not on client-side JSON),
	// shedding 429s with client-side pacing, until the phase ends.
	const (
		floodWorkers = 4
		rowsPerReq   = 16
	)
	stop := make(chan struct{})
	var bgRows atomic.Int64
	var bgFailed failures
	var wg sync.WaitGroup
	for w := 0; w < floodWorkers; w++ {
		reqRows := make([][]float64, rowsPerReq)
		for i := range reqRows {
			reqRows[i] = in.RowSlice((w + i) % baseRows)
		}
		body, err := json.Marshal(serve.InferRequest{Model: t.Model, Class: serve.ClassBackground, Inputs: reqRows})
		if err != nil {
			close(stop)
			wg.Wait()
			return err
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
				status, _, err := post(ctx, t, body, "", nil)
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
	before, err := t.Metrics(ctx)
	if err != nil {
		close(stop)
		wg.Wait()
		return err
	}
	loadedStart := time.Now()
	bgBefore := bgRows.Load()
	loaded, loadedWait, probeErr := probe()
	loadedElapsed := time.Since(loadedStart)
	bgDuring := bgRows.Load() - bgBefore
	after, scrapeErr := t.Metrics(ctx)
	close(stop)
	wg.Wait()
	if probeErr != nil {
		return probeErr
	}
	if bgFailed.first != nil {
		return bgFailed.first
	}
	if scrapeErr != nil {
		return scrapeErr
	}

	p99u := Percentile(unloaded, 99)
	p99l := Percentile(loaded, 99)
	// The precise starvation signal: time interactive rows sat in the
	// scheduler's queues, read back from the exported per-model×class
	// histogram windowed to the loaded probe interval. With weight 8
	// against a saturated background queue, an interactive row rides one
	// of the next couple of batches; 25ms is orders of magnitude above
	// that but far below what a starved row (behind hundreds of queued
	// background rows) would see. The probes' own client-side tally only
	// annotates the failure message.
	win, err := HistWindow(before, after, t.QueueWaitFamily,
		obs.Label{Name: "model", Value: t.Model}, obs.Label{Name: "class", Value: serve.ClassInteractive})
	if err != nil {
		return fmt.Errorf("qos: %w", err)
	}
	if win.Count == 0 {
		return fmt.Errorf("qos: exported queue-wait histogram recorded no interactive rows in the loaded window")
	}
	waitP99 := time.Duration(win.Quantile(0.99) * float64(time.Second))
	if waitBound := 25 * time.Millisecond; waitP99 > waitBound {
		return fmt.Errorf("qos: exported interactive queue-wait p99 %v (%d samples; client-observed %v) under background flood exceeds %v: interactive traffic starved in the scheduler",
			waitP99.Round(time.Microsecond), win.Count, Percentile(loadedWait, 99).Round(time.Microsecond), waitBound)
	}
	bound := 5 * p99u
	if floor := 100 * time.Millisecond; bound < floor {
		bound = floor
	}
	if p99l > bound {
		return fmt.Errorf("qos: interactive p99 %v under background flood exceeds bound %v (5× unloaded %v): interactive traffic starved",
			p99l.Round(time.Microsecond), bound, p99u.Round(time.Microsecond))
	}
	if bgDuring == 0 {
		return fmt.Errorf("qos: background completed no rows during the %v probe window: background starved", loadedElapsed.Round(time.Millisecond))
	}
	log.Printf("qos: interactive p99 %v unloaded → %v under background flood (bound %v, exported queue-wait p99 %v); background completed %d rows meanwhile, no starvation",
		p99u.Round(time.Microsecond), p99l.Round(time.Microsecond), bound, waitP99.Round(time.Microsecond), bgDuring)
	return nil
}

// tracesView is the GET /debug/traces listing both tiers answer.
type tracesView struct {
	Total  uint64       `json:"total"`
	Recent []*obs.Trace `json:"recent"`
}

// ObsPhase smokes the observability surface end to end: the tier mints a
// 32-hex trace ID for a request that carries none; an explicit
// X-Radix-Trace-Id round-trips client → (router → backend →) response,
// header and body; the serving node's full span breakdown (admission, queue,
// assemble, lease, execute, deliver) rides the response; the trace is
// retained with its spans in GET /debug/traces; and the opt-in pprof
// endpoints answer. Returns the retained trace for tier-specific shape
// checks (a router's must be stitched).
func ObsPhase(ctx context.Context, t Target, row []float64) (*obs.Trace, error) {
	status, _, minted, err := PostRow(ctx, t, row)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("obs: probe: status %d err %v", status, err)
	}
	if len(minted.TraceID) != 32 {
		return nil, fmt.Errorf("obs: minted response trace ID %q, want 32 hex chars", minted.TraceID)
	}

	const traceID = "cafe0000cafe0000cafe0000cafe0000"
	body, err := json.Marshal(serve.InferRequest{Model: t.Model, Inputs: [][]float64{row}})
	if err != nil {
		return nil, err
	}
	var out serve.InferResponse
	status, hdr, err := post(ctx, t, body, traceID, &out)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("obs: traced request: status %d err %v", status, err)
	}
	if got := hdr.Get(obs.HeaderTraceID); got != traceID {
		return nil, fmt.Errorf("obs: response trace header %q, want %q", got, traceID)
	}
	if out.TraceID != traceID {
		return nil, fmt.Errorf("obs: response body trace ID %q, want %q (header lost in forwarding?)", out.TraceID, traceID)
	}
	names := make(map[string]bool, len(out.Spans))
	for _, s := range out.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"admission", "queue", "assemble", "lease", "execute", "deliver"} {
		if !names[want] {
			return nil, fmt.Errorf("obs: span %q missing from response: %+v", want, out.Spans)
		}
	}

	// Both tiers retain a trace after the response is written, so the
	// listing can trail the reply by a scheduling quantum; poll briefly.
	var found *obs.Trace
	var view tracesView
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := t.GetJSON(ctx, "/debug/traces?n=16", &view); err != nil {
			return nil, fmt.Errorf("obs: /debug/traces: %w", err)
		}
		for _, tr := range view.Recent {
			if tr.ID == traceID && len(tr.Spans) >= 5 {
				found = tr
			}
		}
		if found != nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("obs: trace %s not retained with spans in /debug/traces (%d total)", traceID, view.Total)
		}
	}

	if err := t.GetJSON(ctx, "/debug/pprof/cmdline", nil); err != nil {
		return nil, fmt.Errorf("obs: pprof cmdline: %w", err)
	}
	log.Printf("obs: trace %s round-tripped with %d spans, retained in /debug/traces (%d total); pprof live",
		traceID, len(out.Spans), view.Total)
	return found, nil
}

// ExemplarSLOPhase exercises the deep observability surface on top of the
// trace smoke: histogram exemplars on the (fleet-merged) latency buckets
// must resolve to retained traces via GET /debug/traces?trace=, the
// ?min_ms= filter must answer JSON, and the SLO engine (fleet-evaluated on
// a router) must report a deliberately breached 1µs objective on the
// target's model as "violated" and a loose 10s one as "ok". The caller arms
// both objectives when it builds the tier.
func ExemplarSLOPhase(ctx context.Context, t Target, in *sparse.Dense) error {
	// Fresh probes so the latency buckets carry recent exemplars whose
	// traces are still in the /debug/traces ring.
	for i := 0; i < 4; i++ {
		status, _, _, err := PostRow(ctx, t, in.RowSlice(i))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("deep-obs: probe %d: status %d err %v", i, status, err)
		}
	}
	scrape, err := t.Metrics(ctx)
	if err != nil {
		return err
	}
	ids := ExemplarTraceIDs(scrape, t.LatencyFamily, t.Model)
	if len(ids) == 0 {
		return fmt.Errorf("deep-obs: no exemplar annotations on %s buckets", t.LatencyFamily.Name())
	}
	// Exemplars name the most recent request per bucket; old buckets may
	// reference traces the ring has since evicted, so any one resolving
	// proves the jump path.
	resolved := ""
	for _, id := range ids {
		var view struct {
			Trace *obs.Trace `json:"trace"`
		}
		if err := t.GetJSON(ctx, "/debug/traces?trace="+id, &view); err != nil {
			continue
		}
		if view.Trace != nil && view.Trace.ID == id && len(view.Trace.Spans) > 0 {
			resolved = id
			break
		}
	}
	if resolved == "" {
		return fmt.Errorf("deep-obs: none of %d exemplar trace IDs resolved via /debug/traces?trace=", len(ids))
	}
	// The ?min_ms= filter: an absurd threshold must still answer JSON,
	// just with everything filtered out.
	var filtered tracesView
	if err := t.GetJSON(ctx, "/debug/traces?min_ms=1e9&n=4", &filtered); err != nil {
		return fmt.Errorf("deep-obs: ?min_ms=1e9: %w", err)
	}
	if filtered.Total == 0 || len(filtered.Recent) != 0 {
		return fmt.Errorf("deep-obs: ?min_ms=1e9 returned %d of %d traces, want 0", len(filtered.Recent), filtered.Total)
	}

	// The SLO engine: the 1µs objective is unmeetable, so with the whole
	// process lifetime inside both burn windows it must read "violated";
	// the 10s objective must stay "ok".
	var view slo.View
	if err := t.GetJSON(ctx, "/v1/slo", &view); err != nil {
		return fmt.Errorf("deep-obs: /v1/slo: %w", err)
	}
	var breached, loose *slo.Status
	for i := range view.Statuses {
		st := &view.Statuses[i]
		if st.Model != t.Model || st.Class != "" {
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
		return fmt.Errorf("deep-obs: /v1/slo missing objectives for %s (%d statuses)", t.Model, len(view.Statuses))
	}
	if breached.State != slo.StateViolated {
		return fmt.Errorf("deep-obs: unmeetable 1µs objective reports %q (fast burn %.2f, slow %.2f), want %q",
			breached.State, breached.FastBurn, breached.SlowBurn, slo.StateViolated)
	}
	if loose.State != slo.StateOK {
		return fmt.Errorf("deep-obs: loose 10s objective reports %q (fast burn %.2f), want %q",
			loose.State, loose.FastBurn, slo.StateOK)
	}
	log.Printf("deep-obs: exemplar trace %s resolved via ?trace=; /v1/slo: 1µs objective %s (fast burn %.1f), 10s objective %s",
		resolved, breached.State, breached.FastBurn, loose.State)
	return nil
}
