package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/dataset"
)

// schedHarness builds a classSched over the default class universe.
func schedHarness(t *testing.T, depth int) (*qosSet, *classSched) {
	t.Helper()
	qos, err := newQoSSet(QoSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return qos, newClassSched(qos, depth)
}

func mkPending(class int) *pending {
	return &pending{class: class, done: make(chan struct{}), enq: time.Now()}
}

// TestFairSchedulerWeightedShares backs the WFQ claim: with every class
// continuously backlogged, dispatched rows converge to weight proportions.
func TestFairSchedulerWeightedShares(t *testing.T) {
	qos, s := schedHarness(t, 4096)
	now := time.Now()
	served := make([]int, qos.size())
	// Keep every queue topped up and take batches until enough dispatches
	// accumulate to judge proportions.
	const rounds = 200
	for r := 0; r < rounds; r++ {
		for c := 0; c < qos.size(); c++ {
			for s.depth(c) < 64 {
				if err := s.enqueue(mkPending(c)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, shed := s.take(nil, 32, now)
		if len(shed) != 0 {
			t.Fatalf("shed %d rows without deadlines", len(shed))
		}
		for _, p := range got {
			served[p.class]++
		}
	}
	total := 0
	totalWeight := 0
	for c := 0; c < qos.size(); c++ {
		total += served[c]
		totalWeight += qos.weights[c]
	}
	for c := 0; c < qos.size(); c++ {
		want := float64(qos.weights[c]) / float64(totalWeight)
		got := float64(served[c]) / float64(total)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("class %q served %.3f of rows, want %.3f ± 10%% (weights %v, served %v)",
				qos.name(c), got, want, qos.weights, served)
		}
	}
}

// TestFairSchedulerNoStarvationAdversarial is the property-style starvation
// test: under adversarial arrival patterns (the heavy class refilled to a
// full backlog before every single take), any class with pending work and
// nonzero weight makes progress within a bounded number of dispatches.
func TestFairSchedulerNoStarvationAdversarial(t *testing.T) {
	qos, s := schedHarness(t, 4096)
	now := time.Now()
	interactive, err := qos.id(ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	totalWeight := 0
	for _, w := range qos.weights {
		totalWeight += w
	}
	rng := rand.New(rand.NewSource(7)) //nolint:gosec // deterministic test pattern
	for victim := 0; victim < qos.size(); victim++ {
		if victim == interactive {
			continue // interactive is the flooder below
		}
		// One row of the victim class arrives behind an adversarial flood.
		target := mkPending(victim)
		if err := s.enqueue(target); err != nil {
			t.Fatal(err)
		}
		const maxBatch = 8
		// Bound: one full round-robin cycle dispatches ≤ totalWeight rows
		// of other classes before the victim's turn; with takes of maxBatch
		// rows each, the victim must surface within cycle/maxBatch (+1 for
		// a mid-quantum resume, +1 slack) takes.
		bound := totalWeight/maxBatch + 2
		served := false
		for i := 0; i < bound && !served; i++ {
			// Adversary: refill the flood to a deep backlog before every
			// take, in random bursts.
			for s.depth(interactive) < 512 {
				burst := 1 + rng.Intn(64)
				for b := 0; b < burst && s.depth(interactive) < 1024; b++ {
					if err := s.enqueue(mkPending(interactive)); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, _ := s.take(nil, maxBatch, now)
			for _, p := range got {
				if p == target {
					served = true
				}
			}
		}
		if !served {
			t.Fatalf("class %q starved: its row not dispatched within %d takes under an interactive flood",
				qos.name(victim), bound)
		}
	}
}

// TestFairSchedulerDeadlineShed: rows whose deadline passed are returned as
// shed at dequeue, never dispatched, and cost their class no deficit.
func TestFairSchedulerDeadlineShed(t *testing.T) {
	qos, s := schedHarness(t, 16)
	interactive, _ := qos.id(ClassInteractive)
	now := time.Now()
	expired := mkPending(interactive)
	expired.deadline = now.Add(-time.Millisecond)
	live := mkPending(interactive)
	live.deadline = now.Add(time.Hour)
	plain := mkPending(interactive)
	for _, p := range []*pending{expired, live, plain} {
		if err := s.enqueue(p); err != nil {
			t.Fatal(err)
		}
	}
	got, shed := s.take(nil, 8, now)
	if len(shed) != 1 || shed[0] != expired {
		t.Fatalf("shed = %v, want exactly the expired row", shed)
	}
	if len(got) != 2 {
		t.Fatalf("dispatched %d rows, want 2", len(got))
	}
	if s.pending != 0 {
		t.Fatalf("pending = %d after full drain", s.pending)
	}
}

// TestQoSPerClassQueueIsolation: one class's queue at capacity must not
// reject another class's rows — queue space is per class by design.
func TestQoSPerClassQueueIsolation(t *testing.T) {
	qos, s := schedHarness(t, 4)
	interactive, _ := qos.id(ClassInteractive)
	background, _ := qos.id(ClassBackground)
	for i := 0; i < 4; i++ {
		if err := s.enqueue(mkPending(background)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.enqueue(mkPending(background)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th background row: %v, want ErrQueueFull", err)
	}
	if err := s.enqueue(mkPending(interactive)); err != nil {
		t.Fatalf("interactive row rejected while only background is full: %v", err)
	}
}

// TestQoSEngineQuotaBound: one execution slot is one batch executing at a
// time across every model of the registry. Model a's batch takes the slot
// and waits for a's only engine, leased away here, so model b's request
// must not return until that engine comes back. Nothing is timed but the
// wait that b must outlast, so a slow host cannot make it fail.
func TestQoSEngineQuotaBound(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 1, MaxLatency: -1})
	defer reg.Close()
	reg.slots = make(chan struct{}, 1)
	a, err := reg.Register("a", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register("b", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	do := func(m *Model) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := m.Do(context.Background(), &Request{Rows: [][]float64{make([]float64, m.InputWidth())}})
			done <- err
		}()
		return done
	}
	eng := a.Lease()
	released := false
	defer func() { // before reg.Close, which waits for a's batch to drain
		if !released {
			a.Release(eng)
		}
	}()
	aDone := do(a)
	waitFor(t, "model a's batch to take the only slot", func() bool { return len(reg.slots) == 1 })
	bDone := do(b)
	select {
	case err := <-bDone:
		t.Fatalf("model b's request returned (err %v) while model a's batch held the only slot", err)
	case <-time.After(100 * time.Millisecond):
	}
	a.Release(eng)
	released = true
	for name, done := range map[string]<-chan error{"a": aDone, "b": bDone} {
		if err := <-done; err != nil {
			t.Fatalf("model %s: %v", name, err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQoSDoClassAndTimings: Do schedules by class, echoes the canonical
// class, reports timings, and rejects unknown classes.
func TestQoSDoClassAndTimings(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, m.InputWidth())
	row[2] = 1

	resp, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != ClassBatch {
		t.Fatalf("Class = %q, want %q", resp.Class, ClassBatch)
	}
	if len(resp.Outputs) != 1 || len(resp.Outputs[0]) != m.OutputWidth() {
		t.Fatalf("outputs shape wrong: %d rows", len(resp.Outputs))
	}
	if resp.Execute <= 0 {
		t.Fatalf("Execute = %v, want > 0", resp.Execute)
	}
	if resp.QueueWait < 0 {
		t.Fatalf("QueueWait = %v", resp.QueueWait)
	}

	// Default class for unlabeled requests.
	resp, err = m.Do(context.Background(), &Request{Rows: [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != ClassInteractive {
		t.Fatalf("default class = %q, want %q", resp.Class, ClassInteractive)
	}

	// Unknown class fails before queuing anything.
	if _, err := m.Do(context.Background(), &Request{Rows: [][]float64{row}, Class: "vip"}); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("unknown class: %v, want ErrUnknownClass", err)
	}
	if got := m.Metrics().Snapshot().Accepted; got != 2 {
		t.Fatalf("accepted = %d, want 2 (unknown class must not queue)", got)
	}

	// Per-class latency histograms saw one batch row and one interactive
	// row: their counts are the class completions.
	for _, class := range []string{ClassBatch, ClassInteractive} {
		id, err := m.qos.id(class)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.met.class(id).LatencyHist.Snapshot().Count; n != 1 {
			t.Fatalf("class %q completions = %d, want 1", class, n)
		}
	}
}

// TestQoSDoDeadlineShedsQueuedRows: with the engine starved, queued rows
// whose deadline passes are shed with ErrDeadlineExceeded and never
// executed.
func TestQoSDoDeadlineShedsQueuedRows(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 8})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, m.InputWidth())

	// Dead on arrival: shed without queueing, booked as accepted+expired so
	// the counter identity (accepted = completed+failed+expired+queued)
	// holds.
	_, err = m.Do(context.Background(), &Request{
		Rows: [][]float64{row}, Deadline: time.Now().Add(-time.Second),
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired request: %v, want ErrDeadlineExceeded", err)
	}
	if s := m.Metrics().Snapshot(); s.Expired != 1 || s.Accepted != 1 {
		t.Fatalf("after DOA shed: expired %d accepted %d, want 1/1", s.Expired, s.Accepted)
	}

	// Queued past its deadline: starve the worker (lease the only engine,
	// and occupy the worker with a batch that blocks on the lease), then
	// submit a short-deadline row behind it and release.
	eng := m.Lease()
	blocker := make(chan error, 1)
	go func() {
		out := make([]float64, m.OutputWidth())
		blocker <- doRow(m, row, out)
	}()
	// Wait until the worker has actually DEQUEUED the blocker (it is now
	// blocked on the engine lease) — only then is the next submission
	// guaranteed to sit in the queue rather than join the blocker's batch.
	waitFor(t, "worker holds the blocker", func() bool {
		return m.bat.inflight.Load() == 1 && m.bat.depth() == 0
	})
	// Outwait the collector's company-grace window (200µs) so the next
	// submission cannot join the blocker's still-collecting batch.
	time.Sleep(5 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), &Request{
			Rows: [][]float64{row}, Deadline: time.Now().Add(20 * time.Millisecond),
		})
		done <- err
	}()
	waitFor(t, "row queued", func() bool { return m.bat.depth() == 1 })
	time.Sleep(40 * time.Millisecond) // let the deadline die while queued
	m.Release(eng)
	if err := <-blocker; err != nil {
		t.Fatalf("blocker row failed: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued-expired request: %v, want ErrDeadlineExceeded", err)
	}
	if got := m.Metrics().Snapshot().Expired; got != 2 {
		t.Fatalf("Expired = %d, want 2", got)
	}
}

// TestQoSHTTPClassDeadlineWire covers the wire plumbing: class echoes and
// timing fields on 200, 422 on an unknown class, 504 with class
// attribution on an expired deadline, and header precedence over the body.
func TestQoSHTTPClassDeadlineWire(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{MaxBatch: 8, MaxLatency: time.Millisecond}, 1)
	row := make([]float64, m.InputWidth())
	row[1] = 1

	resp, body := postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{row}, Class: ClassBackground})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ok InferResponse
	if err := json.Unmarshal(body, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Class != ClassBackground {
		t.Fatalf("response class %q, want background", ok.Class)
	}
	if ok.ExecuteMs <= 0 {
		t.Fatalf("execute_ms = %v, want > 0", ok.ExecuteMs)
	}

	// Unknown class → 422 with attribution, before any row queues.
	before := m.Metrics().Snapshot().Accepted
	resp, body = postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{row}, Class: "vip"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown class: status %d: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Model != "m" || e.Class != "vip" {
		t.Fatalf("422 body %s: want model and class attribution (err %v)", body, err)
	}
	if m.Metrics().Snapshot().Accepted != before {
		t.Fatal("unknown-class request queued rows")
	}

	// Expired deadline → 504 with class attribution.
	resp, body = postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{row}, DeadlineMs: 0.000001})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Class != ClassInteractive {
		t.Fatalf("504 body %s: want default-class attribution (err %v)", body, err)
	}

	// Router headers beat the body: the body says batch, the header (the
	// canonical class a router forwards) says background.
	reqBody, err := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{row}, Class: ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(HeaderClass, ClassBackground)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	if ok.Class != ClassBackground {
		t.Fatalf("header class ignored: scheduled as %q", ok.Class)
	}

	// Header deadline (already expired) beats the body's absent one.
	hreq2, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	hreq2.Header.Set("Content-Type", "application/json")
	hreq2.Header.Set(HeaderDeadlineMs, "0.000001")
	hresp2, err := http.DefaultClient.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("header deadline: status %d, want 504", hresp2.StatusCode)
	}
}

// TestDeadlineFromMsHostileBudgets: only a positive budget is a deadline. NaN
// used to pass both range tests and convert to a Duration of MinInt64 — a
// deadline 292 years ago, so the request was shed unexecuted.
func TestDeadlineFromMsHostileBudgets(t *testing.T) {
	for _, ms := range []float64{math.NaN(), 0, math.Copysign(0, -1), -1, math.Inf(-1)} {
		if d := DeadlineFromMs(ms); !d.IsZero() {
			t.Errorf("DeadlineFromMs(%v) = %v, want no deadline", ms, d)
		}
	}
	for _, ms := range []float64{5e-324, 250, 1e15, math.MaxFloat64, math.Inf(1)} {
		if d := DeadlineFromMs(ms); !d.After(time.Now().Add(-time.Second)) {
			t.Errorf("DeadlineFromMs(%v) = %v, want a deadline not in the past", ms, d)
		}
	}
}

// TestQoSHTTPNaNDeadlineHeaderExecutes: X-Radix-Deadline-Ms: NaN (any
// spelling strconv.ParseFloat accepts) is no deadline — the request runs and
// answers the oracle's row, like -1, Inf and no header at all; it was a 504.
func TestQoSHTTPNaNDeadlineHeaderExecutes(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{MaxBatch: 8, MaxLatency: time.Millisecond}, 1)
	in, err := dataset.SparseBatch(1, m.InputWidth(), 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, m.Config(), in)
	reqBody, err := json.Marshal(InferRequest{Model: "m", Inputs: [][]float64{in.RowSlice(0)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"NaN", "nan", "-1", "Inf", ""} {
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if h != "" {
			hreq.Header.Set(HeaderDeadlineMs, h)
		}
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var got InferResponse
		err = json.NewDecoder(hresp.Body).Decode(&got)
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("deadline header %q: status %d (decode: %v), want 200", h, hresp.StatusCode, err)
		}
		if len(got.Outputs) != 1 || !slices.Equal(got.Outputs[0], want[0]) {
			t.Fatalf("deadline header %q: outputs differ from the CSC oracle", h)
		}
	}
	if shed := m.Metrics().Snapshot().Expired; shed != 0 {
		t.Errorf("%d rows counted as deadline sheds", shed)
	}
}

// TestQoSHTTP429ClassAttributionAndRetryAfter: a saturated class queue
// answers 429 naming the class, with a positive integer Retry-After
// derived from queue depth and drain rate.
func TestQoSHTTP429ClassAttributionAndRetryAfter(t *testing.T) {
	pol := Policy{MaxBatch: 2, MaxLatency: 2 * time.Millisecond, QueueDepth: 2}
	_, m, ts := newTestServer(t, pol, 1)
	row := make([]float64, m.InputWidth())
	row[0] = 1
	eng := m.Lease() // starve the worker

	var got429 atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postInfer(t, ts.URL, InferRequest{Model: "m", Inputs: [][]float64{row}, Class: ClassBackground})
			if resp.StatusCode != http.StatusTooManyRequests {
				return
			}
			got429.Add(1)
			ra := resp.Header.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Errorf("Retry-After %q, want a positive integer", ra)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Model != "m" || e.Class != ClassBackground {
				t.Errorf("429 body %s: want model+class attribution (err %v)", body, err)
			}
		}()
	}
	waitFor(t, "rejections", func() bool { return m.Metrics().Snapshot().Rejected >= 8 })
	m.Release(eng)
	wg.Wait()
	if got429.Load() == 0 {
		t.Fatal("no 429s under class saturation")
	}
	// The rejections were attributed to the background class only.
	for c := 0; c < m.qos.size(); c++ {
		class, rejected := m.qos.name(c), m.met.class(c).Rejected.Load()
		if class == ClassBackground && rejected == 0 {
			t.Error("background rejections not counted per class")
		}
		if class != ClassBackground && rejected != 0 {
			t.Errorf("class %q charged %d rejections for a background flood", class, rejected)
		}
	}
}

// TestQoSDoConcurrentReloadUnregisterRace is the race-mode test for the new
// request path: concurrent Do calls across classes while the model is
// hot-reloaded and finally unregistered. No request may fail for any
// reason other than the terminal ErrClosed.
func TestQoSDoConcurrentReloadUnregisterRace(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	classes := []string{ClassInteractive, ClassBatch, ClassBackground, ""}
	row := make([]float64, m.InputWidth())
	row[3] = 1

	stop := make(chan struct{})
	var unexpected atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := &Request{Rows: [][]float64{row}, Class: classes[(w+i)%len(classes)]}
				if (w+i)%5 == 0 {
					req.Deadline = time.Now().Add(time.Second)
				}
				if _, err := m.Do(context.Background(), req); err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					unexpected.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		if _, err := reg.Reload("m", cfg); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	if err := reg.Unregister("m"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d unexpected errors during reload/unregister (first: %v)", n, firstErr.Load())
	}
}

// TestQoSRegistryConfigValidation: bad QoS configs are refused, good ones
// resolve classes as documented.
func TestQoSRegistryConfigValidation(t *testing.T) {
	if _, err := NewRegistryQoS(Policy{}, QoSConfig{Weights: map[string]int{"a": 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewRegistryQoS(Policy{}, QoSConfig{Weights: map[string]int{"": 3}}); err == nil {
		t.Error("empty class name accepted")
	}
	reg, err := NewRegistryQoS(Policy{}, QoSConfig{Weights: map[string]int{"gold": 4, "bronze": 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// No "interactive" in a custom set: the heaviest class is the default.
	if got := reg.DefaultClass(); got != "gold" {
		t.Fatalf("default class %q, want gold", got)
	}
	if w := reg.Classes(); w["gold"] != 4 || w["bronze"] != 1 {
		t.Fatalf("classes = %v", w)
	}
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResolveClass("interactive"); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("interactive resolved in a custom set: %v", err)
	}
	if name, err := m.ResolveClass(""); err != nil || name != "gold" {
		t.Fatalf("ResolveClass(\"\") = %q, %v", name, err)
	}
}
