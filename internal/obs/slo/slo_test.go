package slo

import (
	"flag"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
)

func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("*:interactive:250ms:99")
	if err != nil {
		t.Fatal(err)
	}
	if o.Model != "*" || o.Class != "interactive" || o.Latency != 250*time.Millisecond || o.Target != 0.99 {
		t.Fatalf("parsed %+v", o)
	}
	if o.Name == "" {
		t.Fatal("objective has no name")
	}

	o, err = ParseObjective("e10::error:99.9")
	if err != nil {
		t.Fatal(err)
	}
	if o.Model != "e10" || o.Class != "" || o.Latency != 0 || math.Abs(o.Target-0.999) > 1e-12 {
		t.Fatalf("parsed %+v", o)
	}

	// Empty model means every model.
	if o, err = ParseObjective("::10ms:95"); err != nil || o.Model != "*" {
		t.Fatalf("parsed %+v, err %v", o, err)
	}

	for _, bad := range []string{
		"",
		"m:c:10ms",         // too few fields
		"m:c:10ms:99:x",    // too many fields
		"m::0s:99",         // zero latency
		"m::-5ms:99",       // negative latency
		"m::banana:99",     // neither duration nor "error"
		"m::10ms:0",        // target at the floor
		"m::10ms:100",      // target at the ceiling
		"m::10ms:-3",       // negative target
		"m::10ms:ninety",   // non-numeric target
		"m::error:100.001", // over the ceiling
	} {
		if o, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) = %+v, want error", bad, o)
		}
	}
}

// TestFlag: the -slo flag parses each objective as it is set, refuses a
// bad one without keeping it, and is the objective list.
func TestFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f Flag
	fs.Var(&f, "slo", "objective")
	if err := fs.Parse([]string{"-slo", "*:interactive:250ms:99", "-slo", "e10::error:99.9"}); err != nil {
		t.Fatal(err)
	}
	if want := mustObjectives(t, "*:interactive:250ms:99", "e10::error:99.9"); !reflect.DeepEqual([]Objective(f), want) {
		t.Fatalf("flag holds %+v, want %+v", f, want)
	}
	if got := f.String(); got != "*:interactive:250ms:99,e10::error:99.9" {
		t.Fatalf("String() = %q", got)
	}
	if err := fs.Parse([]string{"-slo", "m::banana:99"}); err == nil || !strings.Contains(err.Error(), `invalid value "m::banana:99" for flag -slo`) {
		t.Fatalf("bad objective: %v", err)
	}
	if len(f) != 2 {
		t.Fatalf("a refused objective was kept: %+v", f)
	}
}

func TestNewNilWithoutObjectives(t *testing.T) {
	if e := New(nil); e != nil {
		t.Fatal("New with no objectives should disable the engine (nil)")
	}
}

// histWithGood builds a cumulative scrape histogram with `good`
// observations at or below 10ms and total-good above it; the 0.01 bucket
// boundary coincides with the objective bound, so CountBelow is exact.
func histWithGood(good, total uint64) obs.ScrapedHist {
	return obs.ScrapedHist{
		Les:   []float64{0.01, 1},
		Cum:   []uint64{good, total},
		Count: total,
		Sum:   float64(total) * 0.01,
	}
}

func mustObjectives(t *testing.T, specs ...string) []Objective {
	t.Helper()
	objectives, err := ParseObjectives(specs)
	if err != nil {
		t.Fatal(err)
	}
	return objectives
}

func TestLatencyBurnStates(t *testing.T) {
	cases := []struct {
		name      string
		good      uint64
		wantBurn  float64
		wantState string
	}{
		{"all good", 100, 0, StateOK},
		{"5% bad burns 5x budget", 95, 5, StateWarn},
		{"50% bad burns 50x budget", 50, 50, StateViolated},
	}
	t0 := time.Unix(1700000000, 0)
	for _, tc := range cases {
		e := New(mustObjectives(t, "m::10ms:99"))
		e.Record("m", "", Sample{Hist: histWithGood(tc.good, 100)}, t0)
		statuses := e.Evaluate(t0)
		if len(statuses) != 1 {
			t.Fatalf("%s: %d statuses, want 1", tc.name, len(statuses))
		}
		st := statuses[0]
		if math.Abs(st.FastBurn-tc.wantBurn) > 1e-9 || math.Abs(st.SlowBurn-tc.wantBurn) > 1e-9 {
			t.Errorf("%s: burn fast %g slow %g, want %g", tc.name, st.FastBurn, st.SlowBurn, tc.wantBurn)
		}
		if st.State != tc.wantState {
			t.Errorf("%s: state %q, want %q", tc.name, st.State, tc.wantState)
		}
		if tc.good == 100 && st.BudgetRemaining != 1 {
			t.Errorf("%s: budget remaining %g, want 1", tc.name, st.BudgetRemaining)
		}
	}
}

func TestErrorObjective(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	e := New(mustObjectives(t, "m::error:99"))
	e.Record("m", "", Sample{Bad: 10, Total: 100}, t0)
	statuses := e.Evaluate(t0)
	if len(statuses) != 1 {
		t.Fatalf("%d statuses, want 1", len(statuses))
	}
	if st := statuses[0]; math.Abs(st.FastBurn-10) > 1e-9 || st.State != StateWarn {
		t.Fatalf("error objective: burn %g state %q, want 10 %q", st.FastBurn, st.State, StateWarn)
	}
}

// TestRecordRetainsNoExemplars pins what a retained sample may hold: the
// engine keeps up to MaxSamples of them per series for the slow window,
// and an exemplar's trace ID can be a substring of a whole backend
// scrape, so exemplars — which no objective reads — are dropped at the
// door; the caller's histogram is not touched.
func TestRecordRetainsNoExemplars(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	e := New(mustObjectives(t, "m::10ms:99"))
	h := histWithGood(90, 100)
	h.Exemplars = []obs.ScrapedExemplar{{TraceID: "aaaa", Value: 0.005}, {}, {TraceID: "bbbb", Value: 3}}
	for i := 0; i < 3; i++ {
		e.Record("m", "", Sample{Hist: h}, t0.Add(time.Duration(i)*time.Second))
	}
	for _, ts := range e.series[seriesKey{"m", ""}].samples {
		if ts.s.Hist.Exemplars != nil {
			t.Fatalf("retained sample at %v holds exemplars %+v", ts.t, ts.s.Hist.Exemplars)
		}
		if ts.s.Hist.Count != 100 || ts.s.Hist.Cum[0] != 90 {
			t.Fatalf("retained sample lost its counts: %+v", ts.s.Hist)
		}
	}
	if len(h.Exemplars) != 3 || h.Exemplars[0].TraceID != "aaaa" {
		t.Fatalf("Record modified the caller's histogram: %+v", h.Exemplars)
	}
}

// TestWindowDelta pins the multi-window semantics: a series that burned
// hot long ago but has been clean for the whole fast window reports a
// cold fast burn and a hot slow burn — warn, not violated, which is the
// page-only-on-sustained-burn property multi-window alerting exists for.
func TestWindowDelta(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	e := New(mustObjectives(t, "m::error:99"))
	// Cumulative counters: 50 of the first 100 requests were bad; the
	// next 100 (inside the fast window) were all good.
	e.Record("m", "", Sample{Bad: 50, Total: 100}, t0)
	now := t0.Add(FastWindow + time.Minute)
	e.Record("m", "", Sample{Bad: 50, Total: 200}, now)

	statuses := e.Evaluate(now)
	if len(statuses) != 1 {
		t.Fatalf("%d statuses, want 1", len(statuses))
	}
	st := statuses[0]
	if st.FastBurn != 0 {
		t.Errorf("fast burn %g, want 0 (window delta has no bad events)", st.FastBurn)
	}
	if math.Abs(st.SlowBurn-25) > 1e-9 {
		t.Errorf("slow burn %g, want 25 (young series: zero baseline)", st.SlowBurn)
	}
	if st.State != StateWarn {
		t.Errorf("state %q, want %q", st.State, StateWarn)
	}
	if math.Abs(st.FastTotal-100) > 1e-9 || math.Abs(st.FastGood-100) > 1e-9 {
		t.Errorf("fast window good/total %g/%g, want 100/100", st.FastGood, st.FastTotal)
	}
}

func TestClassWildcardMatching(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	e := New(mustObjectives(t,
		"*:*:10ms:99", // concrete classes only
		"*::10ms:99",  // the per-model aggregate only
	))
	e.Record("m", "", Sample{Hist: histWithGood(100, 100)}, t0)
	e.Record("m", "interactive", Sample{Hist: histWithGood(100, 100)}, t0)

	statuses := e.Evaluate(t0)
	if len(statuses) != 2 {
		t.Fatalf("%d statuses, want 2 (one per objective): %+v", len(statuses), statuses)
	}
	// Evaluate sorts by (model, class, name): aggregate first.
	if statuses[0].Class != "" || statuses[0].Objective.Class != "" {
		t.Errorf("aggregate objective matched class %q", statuses[0].Class)
	}
	if statuses[1].Class != "interactive" || statuses[1].Objective.Class != "*" {
		t.Errorf("wildcard-class objective matched %+v", statuses[1])
	}
}

func TestViewOfNeverNilStatuses(t *testing.T) {
	e := New(mustObjectives(t, "absent::10ms:99"))
	v := e.ViewOf(time.Unix(1700000000, 0))
	if v.Statuses == nil {
		t.Fatal("ViewOf returned nil Statuses")
	}
	if v.FastWindow == "" || v.SlowWindow == "" {
		t.Fatalf("ViewOf windows empty: %+v", v)
	}
}
