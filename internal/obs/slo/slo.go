// Package slo evaluates serving objectives ("99% of gc requests finish
// within 250ms") against the observability stack's histogram scrapes
// using the multi-window burn-rate method: the rate at which the error
// budget is being consumed is measured over a fast window (5m, catches
// page-worthy regressions in minutes) and a slow window (1h, suppresses
// one-scrape blips), and an objective is
// violated only when both windows burn hot — the standard SRE
// alerting shape.
//
// The engine is fed cumulative samples (scrape deltas happen inside):
// a serve node records its own histogram snapshots, the router records
// the fleet-merged families, and both expose the evaluation as
// GET /v1/slo JSON plus radix*_slo_* gauge series on /metrics.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
)

// Objective is one target: either a latency objective (Latency > 0 —
// at least Target of requests complete within Latency) or an error
// objective (Latency == 0 — at least Target of rows succeed).
// Model/Class select which recorded series it applies to; "*" matches
// every concrete model or class, and the empty class names the
// per-model aggregate series.
type Objective struct {
	// Name labels the objective in /v1/slo and the slo_* metric series.
	Name string `json:"name"`
	// Model is a concrete model name or "*" for every model.
	Model string `json:"model"`
	// Class is a concrete class name, "*" for every concrete class, or
	// "" for the per-model aggregate (all classes folded together).
	Class string `json:"class"`
	// Latency is the latency threshold a good request finishes within;
	// 0 makes this an error-ratio objective.
	Latency time.Duration `json:"latency_ns"`
	// Target is the required good fraction in (0,1), e.g. 0.99.
	Target float64 `json:"target"`
}

// String renders the objective in the flag form ParseObjective accepts.
func (o Objective) String() string {
	kind := "error"
	if o.Latency > 0 {
		kind = o.Latency.String()
	}
	return fmt.Sprintf("%s:%s:%s:%g", o.Model, o.Class, kind, o.Target*100)
}

// ParseObjective parses the compact flag form
// "MODEL:CLASS:LATENCY:TARGET_PCT", e.g. "*:*:250ms:99" (99% of every
// model×class's requests within 250ms) or "gc::error:99.9" (99.9% of
// gc rows succeed, all classes aggregated). LATENCY is a Go duration
// or the literal "error" for an error-ratio objective.
func ParseObjective(spec string) (Objective, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 4 {
		return Objective{}, fmt.Errorf("slo: objective %q: want MODEL:CLASS:LATENCY:TARGET_PCT", spec)
	}
	// A duration like "1m30s" has no ':', so only the target can follow
	// the latency field; reject extra fields.
	if len(parts) > 4 {
		return Objective{}, fmt.Errorf("slo: objective %q: too many fields", spec)
	}
	o := Objective{Model: strings.TrimSpace(parts[0]), Class: strings.TrimSpace(parts[1])}
	if o.Model == "" {
		o.Model = "*"
	}
	lat := strings.TrimSpace(parts[2])
	if lat != "error" {
		d, err := time.ParseDuration(lat)
		if err != nil || d <= 0 {
			return Objective{}, fmt.Errorf("slo: objective %q: bad latency %q (Go duration or \"error\")", spec, lat)
		}
		o.Latency = d
	}
	pct, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return Objective{}, fmt.Errorf("slo: objective %q: bad target %q (percent in (0,100))", spec, parts[3])
	}
	o.Target = pct / 100
	o.Name = fmt.Sprintf("%s-le-%s", displayClassOrModel(o.Model, o.Class), lat)
	return o, nil
}

func displayClassOrModel(model, class string) string {
	m := model
	if class != "" {
		m += "-" + class
	}
	return m
}

// ParseObjectives parses a comma- or semicolon-free list of repeated
// flag values.
func ParseObjectives(specs []string) ([]Objective, error) {
	out := make([]Objective, 0, len(specs))
	for _, s := range specs {
		o, err := ParseObjective(s)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Flag is the repeatable -slo MODEL:CLASS:LATENCY:TARGET_PCT command-line
// flag, a flag.Value holding the objectives set so far. Each value is
// parsed as it is set, so a bad objective fails flag parsing.
type Flag []Objective

func (f *Flag) String() string {
	specs := make([]string, len(*f))
	for i, o := range *f {
		specs[i] = o.String()
	}
	return strings.Join(specs, ",")
}

func (f *Flag) Set(spec string) error {
	o, err := ParseObjective(spec)
	if err != nil {
		return err
	}
	*f = append(*f, o)
	return nil
}

// The burn-rate recipe: an objective is violated when its fast window
// burns at or above FastBurn and its slow window at or above SlowBurn, in
// budget-consumption multiples of sustainable (1.0 = exactly on target).
// 14.4 over 5m and 6 over 1h are the classic page thresholds, calibrated
// to those windows, so the four are one recipe, not four knobs.
// MaxSamples bounds the retained scrape samples per series.
const (
	FastWindow = 5 * time.Minute
	SlowWindow = time.Hour
	FastBurn   = 14.4
	SlowBurn   = 6.0
	MaxSamples = 512
)

// Sample is one cumulative observation of a series: the latency
// histogram (in seconds, the exported unit) plus row-outcome counters
// for error objectives. Counters are since process (or fleet) start;
// the engine forms windows by subtracting retained samples.
type Sample struct {
	Hist obs.ScrapedHist
	// Bad/Total are cumulative row counts for the error objective, as
	// Outcome counts them.
	Bad   uint64
	Total uint64
}

// Outcome is the one row-outcome rule both tiers feed their engines: a
// series' Bad rows are failed + expired + rejected, and its Total rows
// accepted + rejected. The per-class counters have no failed series, so a
// class passes failed = 0.
func Outcome(h obs.ScrapedHist, accepted, rejected, failed, expired uint64) Sample {
	return Sample{Hist: h, Bad: failed + expired + rejected, Total: accepted + rejected}
}

type seriesKey struct{ model, class string }

type timedSample struct {
	t time.Time
	s Sample
}

type series struct {
	samples []timedSample
}

// Engine retains per-series sample history and evaluates the
// configured objectives on demand. Safe for concurrent use.
type Engine struct {
	objectives []Objective

	mu     sync.Mutex
	series map[seriesKey]*series
}

// New builds an engine; a nil return means no objectives were
// configured (callers treat that as "SLO evaluation off").
func New(objectives []Objective) *Engine {
	if len(objectives) == 0 {
		return nil
	}
	return &Engine{objectives: objectives, series: map[seriesKey]*series{}}
}

// Record retains one cumulative sample for (model, class) at now.
// Samples older than the slow window (plus one slot of slack for the
// baseline) are pruned. Exemplars are dropped first: no objective reads
// them, and up to MaxSamples retained copies per series would each pin
// a bucket's worth of trace IDs.
func (e *Engine) Record(model, class string, s Sample, now time.Time) {
	s.Hist.Exemplars = nil
	e.mu.Lock()
	defer e.mu.Unlock()
	k := seriesKey{model, class}
	sr := e.series[k]
	if sr == nil {
		sr = &series{}
		e.series[k] = sr
	}
	sr.samples = append(sr.samples, timedSample{t: now, s: s})
	// Prune: drop samples that can no longer serve as a slow-window
	// baseline, but always keep one sample older than the cutoff.
	cutoff := now.Add(-SlowWindow)
	firstKeep := 0
	for i := 0; i < len(sr.samples)-1; i++ {
		if sr.samples[i+1].t.After(cutoff) {
			break
		}
		firstKeep = i + 1
	}
	if firstKeep > 0 {
		sr.samples = append(sr.samples[:0], sr.samples[firstKeep:]...)
	}
	if over := len(sr.samples) - MaxSamples; over > 0 {
		// Beyond the cap, thin from the oldest end but keep the very
		// oldest as the long-window baseline.
		sr.samples = append(sr.samples[:1], sr.samples[1+over:]...)
	}
}

// Status is one objective evaluated against one concrete series.
type Status struct {
	Objective Objective `json:"objective"`
	Model     string    `json:"model"`
	Class     string    `json:"class,omitempty"`

	// FastBurn/SlowBurn are the budget-consumption rates over the two
	// windows (1.0 = consuming exactly the sustainable budget).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// Good/Total are the fast-window event counts behind FastBurn.
	FastGood  float64 `json:"fast_good"`
	FastTotal float64 `json:"fast_total"`
	// BudgetRemaining is 1 - SlowBurn, clamped at 0: the fraction of
	// error budget left if the slow window's burn is sustained.
	BudgetRemaining float64 `json:"budget_remaining"`
	// State is "ok", "warn" (either window burning above sustainable),
	// or "violated" (both windows at or above their thresholds).
	State string `json:"state"`
}

// StateOK/StateWarn/StateViolated are the Status.State values; the
// slo_state gauge exports them as 0/1/2.
const (
	StateOK       = "ok"
	StateWarn     = "warn"
	StateViolated = "violated"
)

// StateValue maps a Status.State to its gauge value.
func StateValue(state string) int {
	switch state {
	case StateViolated:
		return 2
	case StateWarn:
		return 1
	default:
		return 0
	}
}

// window returns the sample delta for the window ending at now: the
// latest sample minus the newest sample at or before now-w. A series
// younger than the window uses the zero sample as baseline (counters
// start at zero with the process).
func (sr *series) window(now time.Time, w time.Duration) (Sample, bool) {
	if len(sr.samples) == 0 {
		return Sample{}, false
	}
	latest := sr.samples[len(sr.samples)-1]
	cutoff := now.Add(-w)
	var base *Sample
	for i := len(sr.samples) - 1; i >= 0; i-- {
		if !sr.samples[i].t.After(cutoff) {
			base = &sr.samples[i].s
			break
		}
	}
	out := latest.s
	if base != nil {
		out.Hist = out.Hist.Sub(base.Hist)
		if out.Bad >= base.Bad {
			out.Bad -= base.Bad
		} else {
			out.Bad = 0
		}
		if out.Total >= base.Total {
			out.Total -= base.Total
		} else {
			out.Total = 0
		}
	}
	return out, true
}

// burn computes the budget-consumption rate of one window delta under
// the objective, plus the good/total event counts.
func (o Objective) burn(s Sample) (burn, good, total float64) {
	if o.Latency > 0 {
		total = float64(s.Hist.Count)
		good = s.Hist.CountBelow(o.Latency.Seconds())
	} else {
		total = float64(s.Total)
		good = total - float64(s.Bad)
	}
	if total <= 0 {
		return 0, 0, 0
	}
	if good > total {
		good = total
	}
	badRatio := (total - good) / total
	budget := 1 - o.Target
	if budget <= 0 {
		budget = 1e-9
	}
	return badRatio / budget, good, total
}

// matches reports whether the objective applies to the series key.
func (o Objective) matches(model, class string) bool {
	if o.Model != "*" && o.Model != model {
		return false
	}
	switch o.Class {
	case "*":
		return class != ""
	default:
		return o.Class == class
	}
}

// Evaluate runs every objective against every matching recorded
// series as of now, sorted by (model, class, objective name).
func (e *Engine) Evaluate(now time.Time) []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Status
	for k, sr := range e.series {
		fast, okF := sr.window(now, FastWindow)
		slow, okS := sr.window(now, SlowWindow)
		if !okF || !okS {
			continue
		}
		for _, o := range e.objectives {
			if !o.matches(k.model, k.class) {
				continue
			}
			st := Status{Objective: o, Model: k.model, Class: k.class}
			var fg, ft float64
			st.FastBurn, fg, ft = o.burn(fast)
			st.SlowBurn, _, _ = o.burn(slow)
			st.FastGood, st.FastTotal = fg, ft
			st.BudgetRemaining = 1 - st.SlowBurn
			if st.BudgetRemaining < 0 {
				st.BudgetRemaining = 0
			}
			switch {
			case st.FastBurn >= FastBurn && st.SlowBurn >= SlowBurn:
				st.State = StateViolated
			case st.FastBurn > 1 || st.SlowBurn > 1:
				st.State = StateWarn
			default:
				st.State = StateOK
			}
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Model != out[j].Model {
			return out[i].Model < out[j].Model
		}
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Objective.Name < out[j].Objective.Name
	})
	return out
}

// View is the GET /v1/slo response body.
type View struct {
	FastWindow string   `json:"fast_window"`
	SlowWindow string   `json:"slow_window"`
	FastBurn   float64  `json:"fast_burn_threshold"`
	SlowBurn   float64  `json:"slow_burn_threshold"`
	Statuses   []Status `json:"statuses"`
}

// ViewOf packages an evaluation for the /v1/slo endpoint.
func (e *Engine) ViewOf(now time.Time) View {
	statuses := e.Evaluate(now)
	if statuses == nil {
		statuses = []Status{}
	}
	return View{
		FastWindow: FastWindow.String(),
		SlowWindow: SlowWindow.String(),
		FastBurn:   FastBurn,
		SlowBurn:   SlowBurn,
		Statuses:   statuses,
	}
}

// Exposition declares one tier's burn-rate gauge families under its
// prefix ("radixserve" judges one node's traffic, "radixrouter" the
// fleet's) and returns the function that writes an evaluation, a series
// per objective×series.
func Exposition(tier string) func(w *obs.Writer, statuses []Status) {
	gauge := func(name, help string) *obs.Family {
		return obs.NewGauge(tier+"_slo_"+name, help, "objective", "model", "class")
	}
	gauges := []struct {
		fam   *obs.Family
		value func(st Status) float64
	}{
		{gauge("fast_burn", "Error-budget burn rate over the fast window (1 = sustainable)."),
			func(st Status) float64 { return st.FastBurn }},
		{gauge("slow_burn", "Error-budget burn rate over the slow window (1 = sustainable)."),
			func(st Status) float64 { return st.SlowBurn }},
		{gauge("error_budget_remaining", "Error budget fraction left at the slow window's burn (clamped at 0)."),
			func(st Status) float64 { return st.BudgetRemaining }},
		{gauge("state", "Objective state: 0 ok, 1 warn, 2 violated."),
			func(st Status) float64 { return float64(StateValue(st.State)) }},
	}
	return func(w *obs.Writer, statuses []Status) {
		for _, g := range gauges {
			w.Family(g.fam)
			for _, st := range statuses {
				w.Float(g.value(st), st.Objective.Name, st.Model, st.Class)
			}
		}
	}
}
