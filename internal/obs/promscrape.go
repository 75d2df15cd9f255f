package obs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// ScrapedHist is one histogram series in exposition form: ascending
// bucket upper bounds (in the exported unit, i.e. seconds for the
// radixnet stack), the cumulative count at each bound, and the series
// sum/count. Family.Scraped builds it from a local snapshot and
// MergeHist from parsed /metrics scrapes; selftests use it to assert
// tail-latency invariants from the exported data rather than internal
// tallies, and windowed assertions come from Sub on before/after scrapes.
type ScrapedHist struct {
	Les   []float64
	Cum   []uint64
	Count uint64
	Sum   float64

	// Exemplars, when non-nil, has len(Les)+1 entries — one per finite
	// bucket, the last for +Inf; an empty TraceID means the bucket has
	// none. Sub and the quantile readers ignore them.
	Exemplars []ScrapedExemplar
}

// ScrapedExemplar names the most recent traced observation of one
// exposition bucket, its value in the exported unit.
type ScrapedExemplar struct {
	TraceID string
	Value   float64
}

// Label is one name="value" pair of a series.
type Label struct{ Name, Value string }

// Sample is one series line of a scrape.
type Sample struct {
	Name     string
	Labels   []Label // in the order written
	Value    float64
	Exemplar ScrapedExemplar // TraceID "" means the line has none

	// line is the sample exactly as scraped and cut the offset in it
	// where the series ends (the label block's closing brace, or the end
	// of a bare name), found quote-aware — what lets Relabel relay a
	// line byte for byte with one more label spliced in.
	line string
	cut  int
}

// Meta is one "# HELP name text" or "# TYPE name type" line of a scrape.
type Meta struct {
	Kind, Name, Text string // Kind is "HELP" or "TYPE"

	line string
	at   int // how many samples preceded it
}

// Scrape is one /metrics exposition parsed into typed samples.
type Scrape struct {
	Samples []Sample
	Meta    []Meta
	// Malformed holds the lines ParseScrape could not read and skipped.
	Malformed []string
}

// ParseScrape parses Prometheus text exposition into samples, in order,
// with the HELP/TYPE lines it saw. It is the one reader of /metrics text
// in the repository — run once per scrape, then queried with MergeHist,
// SumCounter and Writer.Relabel — and it is quote-aware throughout: a
// label value may hold any bytes the Writer escapes (`"`, `\`, newline)
// or passes through (` # `, braces, commas, `le=`), since model names
// are client-chosen. The grammar is the Writer's, plus an optional
// integer timestamp; any other line is skipped and listed in Malformed,
// as is a count (a *_total, _bucket or _count series) whose value is
// negative or not finite, so no reader re-checks before converting to
// uint64. Blank lines and other comments are dropped. Label values and
// trace IDs are substrings of text wherever no escape forced a copy:
// holding one keeps the whole scrape alive, which is why MergeHist and
// SumCounter hand out copies.
func ParseScrape(text string) *Scrape {
	sc := &Scrape{}
	var labels []Label // shared backing store for every sample's Labels
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if line == "" {
			continue
		}
		if line[0] == '#' {
			for _, kind := range []string{"HELP", "TYPE"} {
				if rest, ok := strings.CutPrefix(line, "# "+kind+" "); ok {
					name, value, _ := strings.Cut(rest, " ")
					sc.Meta = append(sc.Meta, Meta{kind, name, value, line, len(sc.Samples)})
				}
			}
			continue
		}
		mark := len(labels)
		sm := Sample{line: line}
		rest, ok := parseSeries(&sm, line, &labels)
		if !ok || sm.Name == "" || !parseValue(&sm, rest) {
			labels = labels[:mark]
			sc.Malformed = append(sc.Malformed, line)
			continue
		}
		sc.Samples = append(sc.Samples, sm)
	}
	return sc
}

// unescaper undoes the Writer's three label-value escapes.
var unescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// parseSeries reads `name` or `name{label="value",...}` off the front
// of s into sm, appending the labels to *labels, and returns what
// follows.
func parseSeries(sm *Sample, s string, labels *[]Label) (rest string, ok bool) {
	i := strings.IndexAny(s, "{ ")
	if i < 0 {
		return "", false
	}
	sm.Name, sm.cut = s[:i], i
	if s[i] == ' ' {
		return s[i:], true
	}
	start := len(*labels)
	for s[i] != '}' {
		eq := strings.IndexByte(s[i+1:], '=')
		if eq <= 0 || !strings.HasPrefix(s[i+1+eq:], `="`) {
			return "", false
		}
		name := s[i+1 : i+1+eq]
		// The value runs to the first unescaped quote; it is a substring
		// of the scrape unless an escape forces a copy.
		from := i + eq + 3
		esc := false
		for i = from; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				if i++; i == len(s) || !strings.ContainsRune(`\"n`, rune(s[i])) {
					return "", false
				}
				esc = true
			}
		}
		value := s[from:min(i, len(s))]
		if esc {
			value = unescaper.Replace(value)
		}
		*labels = append(*labels, Label{name, value})
		if i++; i >= len(s) || (s[i] != ',' && s[i] != '}') {
			return "", false
		}
	}
	sm.cut, sm.Labels = i, (*labels)[start:len(*labels):len(*labels)]
	return s[i+1:], true
}

// parseValue reads what follows the series — ` value`, an optional
// integer timestamp, an optional ` # {trace_id="..."} value` exemplar —
// into sm.
func parseValue(sm *Sample, s string) bool {
	tok, s := nextToken(s)
	v, err := strconv.ParseFloat(tok, 64)
	isCount := strings.HasSuffix(sm.Name, "_total") || strings.HasSuffix(sm.Name, "_bucket") || strings.HasSuffix(sm.Name, "_count")
	if err != nil || (isCount && (v < 0 || math.IsNaN(v) || math.IsInf(v, 0))) {
		return false
	}
	sm.Value = v
	tok, rest := nextToken(s)
	if _, err := strconv.ParseInt(tok, 10, 64); err == nil {
		s = rest // timestamp: relayed, not interpreted
		tok, rest = nextToken(s)
	}
	if s == "" {
		return true
	}
	var ex Sample
	var one []Label
	if tok != "#" || !strings.HasPrefix(rest, " {") {
		return false
	}
	rest, ok := parseSeries(&ex, rest[1:], &one)
	if !ok || len(one) != 1 || one[0].Name != "trace_id" || one[0].Value == "" {
		return false
	}
	tok, rest = nextToken(rest)
	sm.Exemplar.TraceID = one[0].Value
	sm.Exemplar.Value, err = strconv.ParseFloat(tok, 64)
	return err == nil && rest == ""
}

// nextToken splits one space-led, space-delimited token off s.
func nextToken(s string) (tok, rest string) {
	if s == "" || s[0] != ' ' {
		return "", s
	}
	if i := strings.IndexByte(s[1:], ' '); i >= 0 {
		return s[1 : 1+i], s[1+i:]
	}
	return s[1:], ""
}

// Series returns the sample's `name{labels}` text.
func (sm *Sample) Series() string { return strings.TrimSuffix(sm.line[:sm.cut+1], " ") }

// Label returns the value of the sample's label name.
func (sm *Sample) Label(name string) (string, bool) {
	for _, l := range sm.Labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// Check is the strict reading of a scrape: an error naming every line
// ParseScrape skipped, every duplicate series or header, and every TYPE
// line with an unknown type. Tests hold both tiers' exposition to it.
func (s *Scrape) Check() error {
	var problems []string
	for _, line := range s.Malformed {
		problems = append(problems, fmt.Sprintf("malformed line %q", line))
	}
	seen := map[string]bool{}
	note := func(key string) {
		if seen[key] {
			problems = append(problems, "duplicate "+key)
		}
		seen[key] = true
	}
	for _, m := range s.Meta {
		note(m.Kind + " " + m.Name)
		if m.Kind == "TYPE" && m.Text != "counter" && m.Text != "gauge" && m.Text != "histogram" {
			problems = append(problems, fmt.Sprintf("malformed TYPE line %q", m.line))
		}
	}
	for i := range s.Samples {
		note(s.Samples[i].Series())
	}
	if problems == nil {
		return nil
	}
	return fmt.Errorf("exposition: %s", strings.Join(problems, "; "))
}

// each calls fn for every sample of family f in the scrapes (nil
// entries — failed scrapes — are skipped) that carries every by label
// and passes the where filter. suffix is what follows f's name in the
// sample's ("", or a histogram's "_bucket"/"_sum"/"_count"); values are
// the sample's by-label values and key their rendered label body
// (`model="m",class="c"`), both valid until fn returns.
func each(f *Family, by []string, where []Label, scrapes []*Scrape, fn func(sm *Sample, suffix string, key []byte, values []string)) {
	var w Writer
	values := make([]string, len(by))
	for _, sc := range scrapes {
		if sc == nil {
			continue
		}
	samples:
		for i := range sc.Samples {
			sm := &sc.Samples[i]
			suffix, ok := strings.CutPrefix(sm.Name, f.name)
			isHist := suffix == "_bucket" || suffix == "_sum" || suffix == "_count"
			if !ok || (suffix != "" && !isHist) || isHist != (f.kind == KindHistogram) {
				continue
			}
			for _, want := range where {
				if v, has := sm.Label(want.Name); !has || v != want.Value {
					continue samples
				}
			}
			w.buf = w.buf[:0]
			for j, name := range by {
				if values[j], ok = sm.Label(name); !ok {
					continue samples
				}
				if j > 0 {
					w.buf = append(w.buf, ',')
				}
				w.label(name, values[j])
			}
			fn(sm, suffix, w.buf, values)
		}
	}
}

// HistSeries is one series of a histogram family merged by MergeHist.
type HistSeries struct {
	// Key is the rendered label body of the series' by labels: what the
	// series sort by, and the key SumCounter files the same label values
	// under.
	Key    string
	Values []string // the by-label values, in by order
	Hist   ScrapedHist
}

// MergeHist reads histogram family f out of the scrapes and merges it
// bucket-wise over the by labels: series that agree on them are summed
// per le, whatever other labels (class, backend) or scrape they came
// from; where, when given, keeps only series carrying those label
// values. A nil by merges everything into one series. Merging is exact
// because every histogram of one family shares one le ladder; a series'
// Count is its +Inf bucket (without one, its summed _count lines). A
// merged bucket keeps the last exemplar seen for it — trace IDs are
// fleet-wide. The result is sorted by Key and shares no memory with the
// scrapes (label values and surviving trace IDs are copied), so a caller
// may retain it without pinning a backend's whole /metrics text.
func MergeHist(f *Family, by []string, where []Label, scrapes ...*Scrape) []HistSeries {
	merged := map[string]*HistSeries{}
	each(f, by, where, scrapes, func(sm *Sample, suffix string, key []byte, values []string) {
		hs := merged[string(key)]
		if hs == nil {
			hs = &HistSeries{Key: string(key), Values: make([]string, len(values))}
			for i, v := range values {
				hs.Values[i] = strings.Clone(v)
			}
			merged[hs.Key] = hs
		}
		h := &hs.Hist
		switch suffix {
		case "_sum":
			h.Sum += sm.Value
		case "_count":
			h.Count += uint64(sm.Value)
		case "_bucket":
			leStr, _ := sm.Label("le")
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil || math.IsNaN(le) {
				return
			}
			// +Inf rides as the last rung until the merge is done.
			i, found := slices.BinarySearch(h.Les, le)
			if !found {
				h.Les = slices.Insert(h.Les, i, le)
				h.Cum = slices.Insert(h.Cum, i, 0)
				h.Exemplars = slices.Insert(h.Exemplars, i, ScrapedExemplar{})
			}
			h.Cum[i] += uint64(sm.Value)
			if sm.Exemplar.TraceID != "" {
				h.Exemplars[i] = sm.Exemplar
			}
		}
	})
	out := make([]HistSeries, 0, len(merged))
	for _, hs := range merged {
		h := &hs.Hist
		if n := len(h.Les) - 1; n >= 0 && math.IsInf(h.Les[n], 1) {
			h.Les, h.Cum, h.Count = h.Les[:n], h.Cum[:n], h.Cum[n]
		} else {
			h.Exemplars = append(h.Exemplars, ScrapedExemplar{})
		}
		for i := range h.Exemplars {
			h.Exemplars[i].TraceID = strings.Clone(h.Exemplars[i].TraceID)
		}
		out = append(out, *hs)
	}
	slices.SortFunc(out, func(a, b HistSeries) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// SumCounter sums counter family f over the by labels across the
// scrapes, keyed like HistSeries.Key.
func SumCounter(f *Family, by []string, scrapes ...*Scrape) map[string]uint64 {
	out := map[string]uint64{}
	each(f, by, nil, scrapes, func(sm *Sample, _ string, key []byte, _ []string) { out[string(key)] += uint64(sm.Value) })
	return out
}

// CountBelow estimates how many observations were at or below bound
// (in the exported unit), linearly interpolating within the straddling
// bucket — the "good event" counter for latency SLOs.
func (h ScrapedHist) CountBelow(bound float64) float64 {
	if h.Count == 0 || len(h.Les) == 0 || bound <= 0 {
		return 0
	}
	prevCum := uint64(0)
	prevLe := 0.0
	for i, le := range h.Les {
		if bound <= le {
			n := float64(h.Cum[i] - prevCum)
			width := le - prevLe
			if width <= 0 {
				return float64(h.Cum[i])
			}
			frac := (bound - prevLe) / width
			return float64(prevCum) + frac*n
		}
		prevCum = h.Cum[i]
		prevLe = le
	}
	// Bound above the ladder: everything in finite buckets counts, and
	// +Inf overflow does not.
	return float64(h.Cum[len(h.Cum)-1])
}

// monus is a - b clamped at zero, for counters read at two moments.
func monus(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Sub subtracts an earlier scrape of the same family (identical le
// ladder), yielding the window between the two scrapes. Mismatched
// ladders or counter regressions clamp to zero rather than panicking —
// a scrape race should never take down a selftest.
func (h ScrapedHist) Sub(prev ScrapedHist) ScrapedHist {
	out := ScrapedHist{Les: h.Les, Cum: slices.Clone(h.Cum), Count: monus(h.Count, prev.Count), Sum: max(h.Sum-prev.Sum, 0)}
	if len(prev.Les) == len(h.Les) {
		for i := range min(len(out.Cum), len(prev.Cum)) {
			out.Cum[i] = monus(out.Cum[i], prev.Cum[i])
		}
	}
	return out
}

// Add sums two windows or scrapes of the same family bucket-wise, which
// the shared le ladder makes exact. The zero value is the identity on
// either side; an o on another ladder (a backend that reported _sum and
// _count but no buckets) is left out rather than allowed to replace what h
// has accumulated. Like Sub it changes neither operand.
func (h ScrapedHist) Add(o ScrapedHist) ScrapedHist {
	if len(h.Les) == 0 {
		return o
	}
	if len(o.Les) != len(h.Les) {
		return h
	}
	out := ScrapedHist{Les: h.Les, Cum: slices.Clone(h.Cum), Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
	for i := range min(len(out.Cum), len(o.Cum)) {
		out.Cum[i] += o.Cum[i]
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) in the exported unit,
// linearly interpolating within the containing bucket. Observations
// above the last finite bound report that bound (the ladder tops out at
// ~17s, far above any latency budget this stack enforces).
func (h ScrapedHist) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Les) == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := max(q*float64(h.Count), 1)
	prevCum := uint64(0)
	prevLe := 0.0
	for i, le := range h.Les {
		cum := h.Cum[i]
		if float64(cum) >= rank {
			n := float64(cum - prevCum)
			if n <= 0 {
				return le
			}
			frac := (rank - float64(prevCum)) / n
			return prevLe + frac*(le-prevLe)
		}
		prevCum = cum
		prevLe = le
	}
	return h.Les[len(h.Les)-1]
}
