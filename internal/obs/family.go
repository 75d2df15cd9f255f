package obs

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
)

// A Family's kind is its Prometheus type, as written on its TYPE line.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Family is one exported metric family: its name, help text, type, label
// names and — for histograms — the scale and bucket window it is exposed
// with. Every family on either tier's /metrics is declared exactly once
// through NewCounter, NewGauge, NewSeconds or NewBuckets; the Writer
// renders from the declaration and every reader (the router's fleet
// merge, its SLO engine, the autoscaler, the selftests) selects scraped
// samples by naming it, so a family cannot be printed under one name and
// looked for under another.
type Family struct {
	name, help string
	kind       string
	labels     []string

	// Histogram families only: observations are divided by scale on the
	// way out and buckets lo..hi (log2 indices) form the le ladder.
	scale  float64
	lo, hi int
}

func (f *Family) Name() string     { return f.name }
func (f *Family) Help() string     { return f.help }
func (f *Family) Kind() string     { return f.kind }
func (f *Family) Labels() []string { return f.labels }

var (
	familyNameRe = regexp.MustCompile(`^radix(serve|router)_[a-z0-9_]*[a-z0-9]$`)

	// registry holds every declared family, sorted by name. It is filled
	// by package-level declarations, i.e. during init, and only read after.
	registry []*Family
)

// validate enforces the naming and shared-ladder rules at declaration,
// which is package init for every real family — so a violation fails
// every test run, not a lint pass after the fact. Fleet-merge exactness
// and dashboard stability both hinge on them: the router sums backend
// buckets per le, which is exact only while every latency family (name
// ending _seconds) is on the one shared ladder at nanoseconds→seconds.
func (f *Family) validate() error {
	switch {
	case !familyNameRe.MatchString(f.name):
		return fmt.Errorf("metric name %q violates the radix(serve|router)_[a-z0-9_]+ convention", f.name)
	case (f.kind == KindCounter) != strings.HasSuffix(f.name, "_total"):
		return fmt.Errorf("metric %q: counters, and only counters, are named *_total", f.name)
	}
	if f.kind != KindHistogram {
		return nil
	}
	if f.scale <= 0 || f.lo < 0 || f.lo > f.hi || f.hi >= NumBuckets {
		return fmt.Errorf("histogram %q: bad scale %g or window %d..%d", f.name, f.scale, f.lo, f.hi)
	}
	if strings.HasSuffix(f.name, "_seconds") && (f.scale != 1e9 || f.lo != minExpoBucket || f.hi != maxExpoBucket) {
		return fmt.Errorf("latency family %q (scale %g, window %d..%d) must be the full shared ladder at scale 1e9: anything else breaks the bucket-wise fleet merge", f.name, f.scale, f.lo, f.hi)
	}
	return nil
}

// declare validates and registers f. A rule violation or a duplicate
// name is a programming error in a package-level declaration: panic.
func declare(f Family) *Family {
	if err := f.validate(); err != nil {
		panic("obs: " + err.Error())
	}
	i, dup := slices.BinarySearchFunc(registry, f.name, func(g *Family, name string) int { return strings.Compare(g.name, name) })
	if dup {
		panic(fmt.Sprintf("obs: metric family %q declared twice", f.name))
	}
	registry = slices.Insert(registry, i, &f)
	return &f
}

// NewCounter declares a counter family (named *_total).
func NewCounter(name, help string, labels ...string) *Family {
	return declare(Family{name: name, help: help, kind: KindCounter, labels: labels})
}

// NewGauge declares a gauge family.
func NewGauge(name, help string, labels ...string) *Family {
	return declare(Family{name: name, help: help, kind: KindGauge, labels: labels})
}

// NewSeconds declares a latency histogram family: nanosecond
// observations exposed in seconds on the shared le ladder.
func NewSeconds(name, help string, labels ...string) *Family {
	return NewBuckets(name, help, 1e9, minExpoBucket, maxExpoBucket, labels...)
}

// NewBuckets declares a histogram family with an explicit scale and
// exposition window: buckets lo..hi form the le ladder, everything below
// lo folds into the first emitted bucket and everything above hi into
// +Inf. Small-integer histograms (batch sizes) pass a low window; a
// *_seconds family must pass exactly what NewSeconds does.
func NewBuckets(name, help string, scale float64, lo, hi int, labels ...string) *Family {
	return declare(Family{name: name, help: help, kind: KindHistogram, labels: labels, scale: scale, lo: lo, hi: hi})
}

// Families lists every declared family, sorted by name.
func Families() []*Family { return slices.Clone(registry) }

// Scraped converts a local snapshot of one of the family's histograms
// into the le-ladder form a /metrics scrape of it parses to — scale and
// window applied, exemplars folded onto the exposition buckets (newest
// sub-window bucket wins the first line, newest overflow bucket +Inf).
// It is both what the Writer prints and the shared currency that lets
// one SLO evaluator consume local histograms and fleet-merged scrapes.
func (f *Family) Scraped(s HistSnapshot) ScrapedHist {
	n := f.hi - f.lo + 1
	h := ScrapedHist{
		Les:   make([]float64, n),
		Cum:   make([]uint64, n),
		Count: s.Count,
		Sum:   float64(s.Sum) / f.scale,
	}
	if s.Exemplars != nil {
		h.Exemplars = make([]ScrapedExemplar, n+1)
	}
	var cum uint64
	for i := 0; i < NumBuckets; i++ {
		slot := min(max(i-f.lo, 0), n) // exposition line bucket i lands on; n is +Inf
		if i <= f.hi {
			cum += s.Buckets[i]
		}
		if i >= f.lo && i <= f.hi {
			h.Les[slot] = float64(BucketBound(i)) / f.scale
			h.Cum[slot] = cum
		}
		if s.Exemplars != nil && s.Exemplars[i].TraceID != "" {
			h.Exemplars[slot] = ScrapedExemplar{s.Exemplars[i].TraceID, float64(s.Exemplars[i].Value) / f.scale}
		}
	}
	return h
}
