package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Setups is how many times an untraced run builds and warms the workload's
// target. setup_s is the fastest: the first pays the process's page faults,
// and the host's interference only ever adds (over eight runs in a noisy hour
// the medians of three ranged over 22 % on offline and 11 % on router, the
// fastest of three over 13 % and 6.5 %). Each set-up costs a second of the 36
// the driver's time limit leaves a run.
const Setups = 3

// MetricDef names a metric, its unit and which way is better.
type MetricDef struct {
	Name, Unit, Better string
}

// EndToEnd are the metrics an untraced run reports on every workload.
var EndToEnd = []MetricDef{
	{"rows_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"alloc_kb_per_row", "KB", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the measured phase lasts.
	Seconds float64
	// Trace turns the harness's span recording on and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// TraceOut, when set, receives the traced run's spans as JSON.
	TraceOut string
	// VerifyOnly runs one measured window per workload: a correctness
	// check, not a measurement.
	VerifyOnly bool

	// corrupt, when set, edits the oracle's expected outputs before the
	// run; the tests use it to prove a wrong word is counted.
	corrupt func(*Inputs)
}

// Result is one run's record.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Windows   int     `json:"windows"`
	// SetupS is every set-up's duration, in order; setup_s is the fastest.
	SetupS  []float64         `json:"setup_s_each,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
	// Flags are things a reader must know before trusting a number: a
	// clamped ledger difference, the size of a probe's buffers.
	Flags []string `json:"flags,omitempty"`
	Env   Env      `json:"env"`
}

// contractLine is the last line of standard output: exactly these keys.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// ContractJSON renders the run's one-line result.
func (r *Result) ContractJSON() ([]byte, error) {
	return json.Marshal(contractLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// ParseContractLine reads a line ContractJSON wrote.
func ParseContractLine(line []byte) (correct bool, attempted, failed int, metrics map[string]Metric, err error) {
	var c contractLine
	if err := json.Unmarshal(line, &c); err != nil {
		return false, 0, 0, nil, fmt.Errorf("bench: result line: %w", err)
	}
	return c.Correct, c.Attempted, c.Failed, c.Metrics, nil
}

// Print writes every metric by name with its unit, then the fingerprint,
// then the contract line.
func (r *Result) Print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v windows %d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Windows)
	fmt.Fprintf(w, "operations attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	if len(r.SetupS) > 0 {
		fmt.Fprintf(w, "set-ups %.4g s\n", r.SetupS)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  flag: %s\n", f)
	}
	env, err := json.Marshal(r.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	line, err := r.ContractJSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Err is non-nil when any operation failed: a run with a wrong output word
// must not exit 0.
func (r *Result) Err() error {
	if r.Correct {
		return nil
	}
	return fmt.Errorf("bench: %s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
}

// Run executes one workload once.
func Run(ctx context.Context, o Options) (*Result, error) {
	spec, err := SpecByName(o.Workload)
	if err != nil {
		return nil, err
	}
	return runSpec(ctx, spec, o)
}

func runSpec(ctx context.Context, spec Spec, o Options) (_ *Result, err error) {
	cfg, err := spec.Model()
	if err != nil {
		return nil, err
	}
	// Inputs and oracle outputs exist before the set-up clock starts.
	in, err := NewInputs(cfg, o.Seed)
	if err != nil {
		return nil, err
	}
	if o.corrupt != nil {
		o.corrupt(in)
	}
	res := &Result{Workload: spec.Name, Seed: o.Seed, Seconds: o.Seconds, Traced: o.Trace,
		Metrics: map[string]Metric{}, Env: Fingerprint()}

	setups := Setups
	if o.Trace || o.VerifyOnly {
		setups = 1 // setup_s is not reported by these runs
	}
	var tg target
	var setupS []float64
	for k := 0; k < setups; k++ {
		if tg != nil {
			if err := tg.close(ctx); err != nil {
				return nil, fmt.Errorf("bench: tear down set-up %d: %w", k-1, err)
			}
			// Drop the previous set-up's model before the next is built, so
			// peak_rss_mb holds one model, not two.
			tg = nil
		}
		runtime.GC()
		t0 := time.Now()
		if tg, err = build(ctx, spec, cfg, in); err != nil {
			return nil, err
		}
		warm, err := runPhase(ctx, spec, tg, plan{opsPerWindow: spec.WarmupOps, windows: 1}, nil)
		if err != nil {
			_ = tg.close(ctx) // the phase's error is the one worth reporting
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		res.Attempted += warm.Attempted
		res.Failed += warm.Failed
	}
	defer func() {
		if cerr := tg.close(ctx); cerr != nil && err == nil {
			err = fmt.Errorf("bench: tear down: %w", cerr)
		}
	}()

	conns := max(1, spec.Conns)
	p := plan{opsPerWindow: spec.OpsPerWindow, seconds: o.Seconds, firstOp: spec.WarmupOps * conns}
	if o.VerifyOnly {
		p.windows = 1
	}
	var tracers []*Tracer
	var spin []float64
	if o.Trace {
		p.between = func() { spin = append(spin, SpinMs()) }
		epoch := time.Now()
		for c := 0; c < conns; c++ {
			tracers = append(tracers, NewTracer(epoch))
		}
	}
	runtime.GC()
	before := readUsage()
	ph, err := runPhase(ctx, spec, tg, p, tracers)
	if err != nil {
		return nil, err
	}
	used := readUsage().sub(before)
	res.Attempted += ph.Attempted
	res.Failed += ph.Failed
	res.Correct = res.Failed == 0
	res.Windows = len(ph.Windows)
	if ph.Rows == 0 {
		return res, fmt.Errorf("bench: %s: no operation succeeded (%d attempted)", spec.Name, ph.Attempted)
	}

	if !o.Trace {
		rate, p50 := quietest(spec, ph.Windows)
		res.put("rows_per_s", rate, "1/s")
		res.put("latency_p50_ms", p50, "ms")
		res.put("alloc_kb_per_row", used.allocBytes/1024/float64(ph.Rows), "KB")
		res.put("setup_s", slices.Min(setupS), "s")
		res.SetupS = setupS
		res.put("peak_rss_mb", PeakRSSMB(), "MB")
		return res, nil
	}

	led, err := runLedger(ctx, o.Seed, res.Env)
	if err != nil {
		return nil, err
	}
	var groups [][]Span
	for _, tr := range tracers {
		groups = append(groups, tr.Spans())
	}
	spans := MergeSpans(append(groups, led.spans)...)
	res.Flags = append(res.Flags, led.flags...)
	for n, m := range led.metrics {
		res.Metrics[n] = m
	}
	res.workloadLayers(spec, ph, used, spans, spin)
	if o.TraceOut != "" {
		if err := WriteTrace(o.TraceOut, spec.Name, o.Seed, spans); err != nil {
			return nil, err
		}
	}
	for _, d := range PerLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("bench: traced run produced no %s", d.Name)
		}
	}
	return res, nil
}

// quietest reads the two timed metrics off the quarter-second window the
// host disturbed least. Its interference is one-sided (a window is never
// faster than the program allows, only slower) and in a bad hour leaves
// quiet stretches of well under a second, so the run's best window repeats
// where its median, and even its best tenth, do not (README, What the host
// does); a change to the program moves every window, the best one too.
// Latency keeps the meaning of a median: each window's own median first,
// then the lowest of those. A schedule fixes the rate, and a window above it
// is the server catching up after a stall, so a schedule-driven workload's
// rate is the median window's instead: it moves only when the server falls
// behind for half the run.
func quietest(s Spec, ws []window) (rowsPerS, p50Ms float64) {
	var rates, p50s []float64
	for _, w := range ws {
		rates = append(rates, w.RowsPerS)
		if w.P50Ms > 0 {
			p50s = append(p50s, w.P50Ms)
		}
	}
	if len(p50s) > 0 {
		p50Ms = slices.Min(p50s)
	}
	if s.Period > 0 {
		return Median(rates), p50Ms
	}
	return slices.Max(rates), p50Ms
}

func (r *Result) put(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// workloadLayers adds the per-layer metrics that describe this workload's
// own measured phase (the ledger's numbers describe the fixed fixture). A
// serve.* or cluster.* value read from the tier's public counters and reply
// spans replaces the fixture's when the workload has that tier, so
// serve.mean_batch_rows is 1 on the single-row workloads and, on burst2,
// between 8 (no two requests ever coalesced) and 16 (every burst one batch).
func (r *Result) workloadLayers(spec Spec, ph *phase, used usage, spans []Span, spin []float64) {
	lat := sortedCopy(ph.LatMs)
	r.put("client.latency_p90_ms", Percentile(lat, 90), "ms")
	r.put("client.latency_p99_ms", Percentile(lat, 99), "ms")
	tail := TailPercentile(len(lat))
	r.put("client.latency_tail_ms", Percentile(lat, tail), "ms")
	r.put("client.latency_tail_pct", tail, "%")
	r.put("client.latency_samples", float64(len(lat)), "count")
	late := 0.0
	if len(ph.LateMs) > 0 {
		late = Percentile(sortedCopy(ph.LateMs), 99)
	}
	r.put("client.lateness_p99_ms", late, "ms")

	var on, off []float64
	for _, w := range ph.Windows {
		if w.Traced {
			on = append(on, w.RowsPerS)
		} else {
			off = append(off, w.RowsPerS)
		}
	}
	r.put("client.window_rate_spread", RelSpread(off), "ratio")
	share := 0.0
	if len(on) > 0 && Median(off) > 0 {
		share = 1 - Median(on)/Median(off)
	} else {
		r.Flags = append(r.Flags, "trace.overhead_share: fewer than two windows ran, no traced window to compare")
	}
	r.put("trace.overhead_share", share, "ratio")

	rows := float64(ph.Rows)
	r.put("process.cpu_us_per_row", used.cpuUs/rows, "us")
	r.put("process.mallocs_per_row", used.mallocs/rows, "count")
	r.put("process.gc_cycles", used.gcCycles, "count")
	r.put("process.gc_pause_ms", used.gcPauseMs, "ms")
	r.put("host.spin_ms", Median(spin), "ms")

	if spec.Kind == KindOffline {
		return
	}
	c := ph.Counters
	if c.batches > 0 {
		r.put("serve.mean_batch_rows", c.batchedRows/c.batches, "count")
	}
	r.put("serve.rejected", c.rejected, "count")
	if spec.Kind == KindRouter && c.requests > 0 {
		r.put("cluster.attempts_per_req", (c.requests+c.failovers)/c.requests, "count")
	}
	byName := DurationsByName(spans)
	for _, stage := range serveStages {
		// Workload spans carry serve.<stage>; the ledger's carry
		// ledger.serve.<stage>, so this reads the workload's own replies.
		if d := byName["serve."+stage]; len(d) > 0 {
			r.put("serve."+stage+"_us", Median(d), "us")
		}
	}
}

// serveStages are the scheduler stages serve reports in Response.Spans.
var serveStages = []string{"queue", "assemble", "lease", "execute", "deliver"}
