package bench

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestEstimators(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := Median(ten); got != 5.5 {
		t.Errorf("Median(1..10) = %v, want 5.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median(3,1,2) = %v, want 2", got)
	}
	if ten[0] != 10 {
		t.Error("Median sorted its argument in place")
	}
	// Reference values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{ten, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	sorted := sortedCopy(ten)
	for _, c := range []struct{ p, want float64 }{{10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{30, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := RelSpread(ten); !near(got, (9.0-1.0)/5.5) {
		t.Errorf("RelSpread(1..10) = %v", got)
	}
	if got := IQRShare(ten); !near(got, 5.5/5.5) {
		t.Errorf("IQRShare(1..10) = %v, want 1", got)
	}
	if got := RangeShare(ten); !near(got, 9/5.5) {
		t.Errorf("RangeShare(1..10) = %v", got)
	}
	if Worse(100, 90, "higher") != 0.1 || Worse(100, 110, "lower") != 0.1 || Worse(100, 110, "higher") != -0.1 {
		t.Error("Worse has the wrong sign for a direction")
	}
	// The timed metrics come from the least disturbed window; a window in
	// which nothing succeeded has no median and is passed over. A schedule's
	// rate is the median window's: a window above it is only catching up.
	ws := []window{{RowsPerS: 900, P50Ms: 2.2}, {RowsPerS: 0}, {RowsPerS: 1000, P50Ms: 2.0}, {RowsPerS: 700, P50Ms: 2.9}, {RowsPerS: 1400, P50Ms: 2.4}}
	if rate, p50 := quietest(Spec{}, ws); rate != 1400 || p50 != 2.0 {
		t.Errorf("closed loop read %v rows/s, %v ms off its windows, want 1400 and 2.0", rate, p50)
	}
	if rate, p50 := quietest(Spec{Period: time.Millisecond}, ws); rate != 900 || p50 != 2.0 {
		t.Errorf("schedule read %v rows/s, %v ms off its windows, want 900 and 2.0", rate, p50)
	}
}

func TestSeedFixesInputsAndSchedule(t *testing.T) {
	cfg, err := Row512Config()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewInputs(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInputs(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewInputs(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) || !reflect.DeepEqual(a.Order, b.Order) || !reflect.DeepEqual(a.Want, b.Want) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.Rows, c.Rows) || reflect.DeepEqual(a.Order, c.Order) {
		t.Error("different seeds gave the same inputs")
	}
	if len(a.Rows) != InputRows || len(a.Rows[0]) != 512 || len(a.Want[0]) != 512 {
		t.Errorf("inputs are %d rows of %d → %d", len(a.Rows), len(a.Rows[0]), len(a.Want[0]))
	}
	// The schedule-driven workload's schedule is which rows each operation
	// carries (seeded) and when it is due (a constant of the workload).
	sched, err := SpecByName("serve_gc1024x24_burst2")
	if err != nil {
		t.Fatal(err)
	}
	if sched.Conns != 2 || sched.RowsPerOp != 8 {
		t.Fatalf("burst2 is %d connections of %d rows", sched.Conns, sched.RowsPerOp)
	}
	for op := 0; op < 64; op++ {
		if !reflect.DeepEqual(a.Pick(op, sched.RowsPerOp), b.Pick(op, sched.RowsPerOp)) {
			t.Fatalf("request %d carries different rows under the same seed", op)
		}
		if got, want := sched.Due(op), time.Duration(op)*12500*time.Microsecond; got != want {
			t.Fatalf("burst %d due at %v, want %v", op, got, want)
		}
	}
	seen := map[int]bool{}
	for op := 0; op < InputRows/sched.RowsPerOp; op++ {
		for _, r := range a.Pick(op, sched.RowsPerOp) {
			seen[r] = true
		}
	}
	if len(seen) != InputRows {
		t.Errorf("one pass through the order touched %d of %d rows", len(seen), InputRows)
	}
}

func TestLedgerArithmetic(t *testing.T) {
	if d, clamped := Sub(10, 4); d != 6 || clamped {
		t.Errorf("Sub(10,4) = %v,%v", d, clamped)
	}
	if d, clamped := Sub(4, 10); d != 0 || !clamped {
		t.Errorf("Sub(4,10) = %v,%v, want 0 and flagged", d, clamped)
	}
	l := &ledger{metrics: map[string]Metric{}}
	if got := l.self("x.self_us", "us", 3, 5); got != 0 || len(l.flags) != 1 || l.metrics["x.self_us"].Value != 0 {
		t.Errorf("a negative ledger difference gave %v, flags %v", got, l.flags)
	}

	// op(100) ⊃ {encode(10), http(70) ⊃ {handler(90): a separate, slower
	// call}, decode(15)}: the op's self time is 5, http's is clamped.
	spans := []Span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100e3},
		{ID: 2, Parent: 1, Name: "encode", StartNs: 0, EndNs: 10e3},
		{ID: 3, Parent: 1, Name: "http", StartNs: 10e3, EndNs: 80e3},
		{ID: 4, Parent: 3, Name: "handler", StartNs: 100e3, EndNs: 190e3},
		{ID: 5, Parent: 1, Name: "decode", StartNs: 80e3, EndNs: 95e3},
	}
	if self, clamped := SelfUs(spans, "op"); len(self) != 1 || self[0] != 5 || clamped != 0 {
		t.Errorf("SelfUs(op) = %v, %d clamped", self, clamped)
	}
	if self, clamped := SelfUs(spans, "http"); len(self) != 1 || self[0] != 0 || clamped != 1 {
		t.Errorf("SelfUs(http) = %v, %d clamped; want 0 and flagged", self, clamped)
	}

	pair := []Span{{ID: 1, Name: "op"}, {ID: 2, Parent: 1, Name: "child"}}
	merged := MergeSpans(pair, pair)
	if merged[2].ID != 3 || merged[3].ID != 4 || merged[3].Parent != 3 || merged[2].Parent != 0 {
		t.Errorf("MergeSpans renumbered to %+v", merged[2:])
	}

	tr := NewTracer(time.Now())
	root := tr.Start("op", 0, 9)
	tr.Add("serve.queue", root, 9, time.Millisecond, 2*time.Millisecond)
	tr.End(root)
	got := tr.Spans()
	if len(got) != 2 || got[1].Parent != root || got[1].StartNs != got[0].StartNs+1e6 || got[1].Dur() != 2e6 || got[1].Req != 9 {
		t.Errorf("tracer recorded %+v", got)
	}
	var off *Tracer
	off.End(off.Start("op", 0, 1))
	off.Add("x", 1, 1, 0, 0)
	if off.Spans() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func TestResultLineRoundTrip(t *testing.T) {
	r := &Result{Correct: true, Attempted: 1000, Failed: 0, Metrics: map[string]Metric{
		"latency_ms": {Value: 1.2034, Unit: "ms"}, "setup_s": {Value: 0.8127, Unit: "s"}}}
	line, err := r.ContractJSON()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	correct, attempted, failed, metrics, err := ParseContractLine(line)
	if err != nil || !correct || attempted != 1000 || failed != 0 || !reflect.DeepEqual(metrics, r.Metrics) {
		t.Errorf("round trip gave %v %d %d %v %v", correct, attempted, failed, metrics, err)
	}
	if r.Err() != nil {
		t.Error("a correct result reports an error")
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode keeps BENCHMARK.json and the tables the program
// reports from saying the same thing, within the driver's limits.
func TestManifestMatchesCode(t *testing.T) {
	m, err := ReadManifest(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(Specs) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(Specs))
	}
	seen := map[string]bool{}
	for i, w := range m.Workloads {
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why {
			t.Errorf("workload %d: manifest %q / code %q (or their reasons) differ", i, w.Name, Specs[i].Name)
		}
		if len(w.Why) > 200 || !nameRe.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q breaks a manifest limit", w.Name)
		}
		seen[w.Name] = true
	}
	if len(m.EndToEnd) != len(EndToEnd) || len(m.PerLayer) != len(PerLayer) || len(m.PerLayer) > 128 {
		t.Fatalf("manifest has %d+%d metrics, code has %d+%d", len(m.EndToEnd), len(m.PerLayer), len(EndToEnd), len(PerLayer))
	}
	maxBound := 0.0
	for i, e := range m.EndToEnd {
		if (MetricDef{e.Name, e.Unit, e.Better}) != EndToEnd[i] {
			t.Errorf("end-to-end %d: manifest %+v, code %+v", i, e, EndToEnd[i])
		}
		if e.Bound <= 0 || e.Bound > 0.25 || seen[e.Name] {
			t.Errorf("%s: bound %v or name breaks a manifest limit", e.Name, e.Bound)
		}
		seen[e.Name] = true
		maxBound = math.Max(maxBound, e.Bound)
	}
	for _, e := range m.EndToEnd {
		if e.Name == "setup_s" && e.Bound != maxBound {
			t.Errorf("setup_s has bound %v; the largest is %v", e.Bound, maxBound)
		}
	}
	for i, e := range m.PerLayer {
		if (MetricDef{e.Name, e.Unit, e.Better}) != PerLayer[i] {
			t.Errorf("per-layer %d: manifest %+v, code %+v", i, e, PerLayer[i])
		}
		if !nameRe.MatchString(e.Name) || seen[e.Name] || (e.Better != "higher" && e.Better != "lower") {
			t.Errorf("per-layer %q breaks a manifest limit", e.Name)
		}
		seen[e.Name] = true
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

// fakeTarget answers after a fixed delay per connection and fails the
// operations it is told to.
type fakeTarget struct {
	delay []time.Duration
	fail  map[int]bool
}

func (f *fakeTarget) do(_ context.Context, conn, op int, _ *Tracer) bool {
	time.Sleep(f.delay[conn])
	return !f.fail[op]
}
func (f *fakeTarget) counters() counters          { return counters{} }
func (f *fakeTarget) close(context.Context) error { return nil }

func TestPhaseWindows(t *testing.T) {
	ctx := context.Background()
	closed := Spec{Name: "closed", RowsPerOp: 3}
	ph, err := runPhase(ctx, closed, &fakeTarget{delay: []time.Duration{200 * time.Microsecond}, fail: map[int]bool{12: true}},
		plan{opsPerWindow: 10, seconds: 0.02, firstOp: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.Windows) < 2 || ph.Attempted != 10*len(ph.Windows) {
		t.Errorf("closed loop ran %d windows for %d operations", len(ph.Windows), ph.Attempted)
	}
	// A failed operation contributes no rows and no latency sample.
	if ph.Failed != 1 || len(ph.LatMs) != ph.Attempted-1 || ph.Rows != 3*(ph.Attempted-1) {
		t.Errorf("failed %d, %d latency samples, %d rows of %d operations", ph.Failed, len(ph.LatMs), ph.Rows, ph.Attempted)
	}
	if len(ph.LateMs) != 0 {
		t.Error("a closed loop recorded lateness")
	}
	for i, w := range ph.Windows {
		if w.RowsPerS <= 0 || w.P50Ms < 0.2 || w.Traced {
			t.Errorf("closed-loop window %d: %+v", i, w)
		}
	}
	if _, err := runPhase(ctx, Spec{Name: "closed2", RowsPerOp: 1, Conns: 2}, &fakeTarget{delay: make([]time.Duration, 2)},
		plan{opsPerWindow: 1, windows: 1}, nil); err == nil {
		t.Error("a closed loop with two connections was accepted")
	}

	// Two connections, each due a request every 2 ms; the second answers
	// 1 ms slower, so every burst completes when it does.
	sched := Spec{Name: "sched", RowsPerOp: 8, Period: 2 * time.Millisecond, Conns: 2}
	fast := &fakeTarget{delay: []time.Duration{100 * time.Microsecond, 1100 * time.Microsecond}, fail: map[int]bool{7: true}}
	t0 := time.Now()
	ph, err = runPhase(ctx, sched, fast, plan{opsPerWindow: 5, seconds: 0.025}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 25 ms of 10 ms windows is 3 windows, each a whole slice of schedule,
	// and a burst is two requests.
	if len(ph.Windows) != 3 || ph.Attempted != 3*5*2 || len(ph.LateMs) != ph.Attempted {
		t.Errorf("schedule ran %d windows, %d requests, %d lateness samples", len(ph.Windows), ph.Attempted, len(ph.LateMs))
	}
	if wall := time.Since(t0); wall < 28*time.Millisecond {
		t.Errorf("fifteen bursts 2 ms apart ended after %v", wall)
	}
	// Request 7 is burst 3's second: the burst gives no latency sample and
	// only its first request's rows.
	if ph.Failed != 1 || len(ph.LatMs) != 14 || ph.Rows != 8*29 {
		t.Errorf("failed %d, %d burst latencies, %d rows", ph.Failed, len(ph.LatMs), ph.Rows)
	}
	for i, l := range ph.LatMs {
		if l < 1.1 {
			t.Errorf("burst %d took %v ms, its slower request alone takes 1.1", i, l)
		}
	}
	// A target slower than the schedule is sent late and timed from the due
	// time, so latency grows along the backlog and goodput falls below the
	// schedule's 8000 rows/s.
	slow := &fakeTarget{delay: []time.Duration{4 * time.Millisecond, 4 * time.Millisecond}}
	ph, err = runPhase(ctx, sched, slow, plan{opsPerWindow: 5, windows: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.LatMs[4] < 3*4 || ph.LateMs[9] < 2*4 || ph.Windows[0].RowsPerS > 5200 {
		t.Errorf("behind schedule: last latency %v ms, lateness %v ms, goodput %v", ph.LatMs[4], ph.LateMs[9], ph.Windows[0].RowsPerS)
	}

	// With tracers, odd windows are the traced ones.
	ph, err = runPhase(ctx, closed, &fakeTarget{delay: []time.Duration{0}}, plan{opsPerWindow: 2, windows: 4}, []*Tracer{NewTracer(time.Now())})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ph.Windows {
		if w.Traced != (i%2 == 1) {
			t.Errorf("window %d traced = %v", i, w.Traced)
		}
	}
}

// small shrinks a workload's fixed counts so a test finishes in a moment.
func small(s Spec) Spec {
	s.WarmupOps = 2
	s.OpsPerWindow = max(2, s.OpsPerWindow/4)
	return s
}

// TestWrongWordIsCounted corrupts one expected word and requires the run to
// report failed operations and an error, so the process exits non-zero.
func TestWrongWordIsCounted(t *testing.T) {
	spec, err := SpecByName("serve_row512_c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.WarmupOps, spec.OpsPerWindow = 8, InputRows
	res, err := runSpec(context.Background(), spec, Options{Seed: 3, VerifyOnly: true, corrupt: func(in *Inputs) {
		w := &in.Want[in.Order[5]][17]
		*w = math.Float64frombits(math.Float64bits(*w) ^ 1) // one bit of one word
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The row is operation 5 of every pass through the 64 rows: once in
	// warm-up, once in the window.
	if res.Failed != 2 || res.Correct || res.Err() == nil {
		t.Errorf("one corrupted word: failed %d of %d, correct %v, err %v", res.Failed, res.Attempted, res.Correct, res.Err())
	}
}

// TestEveryWorkloadOneWindow is the smoke test: each workload, one window,
// every output verified. With -short the fixed counts are shrunk.
func TestEveryWorkloadOneWindow(t *testing.T) {
	for _, spec := range Specs {
		if testing.Short() {
			spec = small(spec)
		}
		res, err := runSpec(context.Background(), spec, Options{Seed: 11, VerifyOnly: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := res.Err(); err != nil || res.Windows != 1 {
			t.Errorf("%s: %v, %d windows", spec.Name, err, res.Windows)
		}
		if want := (spec.WarmupOps + spec.OpsPerWindow) * max(1, spec.Conns); res.Attempted != want {
			t.Errorf("%s: attempted %d operations, want %d", spec.Name, res.Attempted, want)
		}
		for _, d := range EndToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", spec.Name, d.Name, m)
			}
		}
	}
}

// TestTracedRunClosesLedger runs one traced run and checks that it reports
// every per-layer metric, that the nested-call ledger adds up, and that the
// trace file holds the spans.
func TestTracedRunClosesLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the ledger fixture takes several seconds")
	}
	spec, err := SpecByName("serve_row512_c1")
	if err != nil {
		t.Fatal(err)
	}
	spec.WarmupOps, spec.OpsPerWindow = 50, 100
	out := filepath.Join(t.TempDir(), "trace.json")
	res, err := runSpec(context.Background(), spec, Options{Seed: 5, Seconds: 0.5, Trace: true, TraceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	v := func(name string) float64 { return res.Metrics[name].Value }
	for _, d := range PerLayer {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
	if len(res.Metrics) != len(PerLayer) {
		t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(res.Metrics), len(PerLayer))
	}
	op := v("client.encode_us") + v("serve.http_us") + v("client.decode_us") + v("client.unattributed_us")
	if v("client.unattributed_us") > 0.15*op {
		t.Errorf("unattributed %v us of a %v us operation", v("client.unattributed_us"), op)
	}
	clamped := false
	for _, f := range res.Flags {
		clamped = clamped || strings.Contains(f, "clamped")
	}
	if sum := v("serve.transport_self_us") + v("serve.codec_self_us") + v("serve.batcher_self_us") + v("infer.row1_us"); !clamped && !near(sum, v("serve.http_us")) {
		t.Errorf("self times sum to %v us, the round trip is %v us, and nothing was clamped", sum, v("serve.http_us"))
	}
	if v("serve.mean_batch_rows") != 1 || v("cluster.attempts_per_req") != 1 || v("serve.rejected") != 0 {
		t.Errorf("one request in flight: batch rows %v, attempts %v, rejected %v", v("serve.mean_batch_rows"), v("cluster.attempts_per_req"), v("serve.rejected"))
	}
	if v("infer.allocs_per_op") != 0 {
		t.Errorf("Engine.Infer allocated %v times per batch", v("infer.allocs_per_op"))
	}
	if v("core.edges") != 3932160 || v("core.density") != 0.03125 {
		t.Errorf("core.edges %v, core.density %v", v("core.edges"), v("core.density"))
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	names := DurationsByName(tf.Spans)
	for _, want := range []string{"op", "serve.http", "serve.queue", "ledger.serve.op", "ledger.serve.handler", "ledger.serve.do", "ledger.infer.engine", "ledger.cluster.http", "ledger.cluster.handler"} {
		if len(names[want]) == 0 {
			t.Errorf("trace file has no %q span", want)
		}
	}
	for i, s := range tf.Spans {
		if s.ID != int32(i+1) || s.Parent >= s.ID {
			t.Fatalf("span %d has id %d parent %d", i, s.ID, s.Parent)
		}
	}
}
