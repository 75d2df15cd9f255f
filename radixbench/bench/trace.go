package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed call the harness made into a layer. Spans of one
// operation share Req. Parent is the ID of the span that caused it (0 for a
// root). In the nested-call ledger a child is a separate call of the inner
// entry point on the same input, made right after its parent returned, so a
// child's interval need not lie inside its parent's; self time is therefore
// defined on durations, not on interval overlap.
type Span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.EndNs - s.StartNs }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing: that is "tracing off". One tracer serves one goroutine.
type Tracer struct {
	epoch time.Time
	spans []Span
}

// NewTracer returns a tracer whose span times count from epoch.
func NewTracer(epoch time.Time) *Tracer {
	return &Tracer{epoch: epoch, spans: make([]Span, 0, 1<<14)}
}

// Start opens a span and returns its ID (0 on a nil tracer).
func (t *Tracer) Start(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: time.Since(t.epoch).Nanoseconds()})
	return id
}

// End closes the span.
func (t *Tracer) End(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
}

// Add records a span whose timing someone else measured (serve's own
// Response.Spans, read from its public output): start is an offset from the
// parent's start.
func (t *Tracer) Add(name string, parent int32, req int64, startOff, dur time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	id := int32(len(t.spans) + 1)
	start := t.spans[parent-1].StartNs + startOff.Nanoseconds()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start, EndNs: start + dur.Nanoseconds()})
}

// Spans returns what was recorded (nil tracer: nothing).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// MergeSpans joins several tracers' spans into one list, renumbering IDs
// (and the parents that refer to them) so they stay unique.
func MergeSpans(groups ...[]Span) []Span {
	var out []Span
	for _, g := range groups {
		base := int32(len(out))
		for _, s := range g {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// Sub is the ledger's one arithmetic rule, whole − parts: a layer's self
// time is its call's duration minus that of the call nested in it. A negative
// difference means the parts out-ran the whole (they are separate calls;
// noise): it is clamped to 0 and reported as clamped, so a ledger never shows
// a negative cost and never hides that it would have.
func Sub(whole, parts float64) (float64, bool) {
	if d := whole - parts; d >= 0 {
		return d, false
	}
	return 0, true
}

// SelfUs returns, for every span called name, its self time in µs: its
// duration minus the durations of the spans that name it as parent (Sub's
// rule, so never negative), and how many of them had to be clamped.
func SelfUs(spans []Span, name string) (self []float64, clamped int) {
	children := map[int32]int64{}
	for _, s := range spans {
		children[s.Parent] += s.Dur()
	}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d, c := Sub(float64(s.Dur()), float64(children[s.ID]))
		self = append(self, d/1e3)
		if c {
			clamped++
		}
	}
	return self, clamped
}

// DurationsByName groups span durations (µs) by span name.
func DurationsByName(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.Dur())/1e3)
	}
	return out
}

// traceFile is the -trace-out document.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []Span `json:"spans"`
}

// WriteTrace writes the run's spans as one JSON document.
func WriteTrace(path, workload string, seed int64, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{Workload: workload, Seed: seed, Spans: spans,
		Note: "times are ns since the tracer's epoch; parent 0 is a root; spans named ledger.* children are separate nested calls (see README)"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	return nil
}
