package obs

import (
	"strconv"
	"strings"
)

// Writer renders Prometheus text exposition (format 0.0.4 plus
// OpenMetrics-style exemplars) into memory. It is the only code in the
// repository that prints "# HELP"/"# TYPE" lines, label sets and
// histogram series: handlers walk their families through Family and the
// sample methods, then send Bytes. The zero value is ready to use; a
// Writer is not safe for concurrent use.
type Writer struct {
	buf  []byte
	fam  *Family
	seen map[string]bool // header lines already written, "HELP name"/"TYPE name"
}

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// header writes one "# KIND name ..." line, once per (kind, name) for
// the Writer's lifetime — the exposition format's one-header-per-name
// rule, whether the line comes from a declaration or a relayed scrape.
func (w *Writer) header(kind, name, line string) {
	key := kind + " " + name
	if w.seen[key] {
		return
	}
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	w.seen[key] = true
	w.buf = append(append(w.buf, line...), '\n')
}

// Family makes f the family the sample methods write to and emits its
// HELP and TYPE header unless this Writer already has.
func (w *Writer) Family(f *Family) *Writer {
	w.fam = f
	w.header("HELP", f.name, "# HELP "+f.name+" "+f.help)
	w.header("TYPE", f.name, "# TYPE "+f.name+" "+f.kind)
	return w
}

// escaper escapes a label value: backslash, double quote and newline,
// exactly what ParseScrape undoes. Every other byte passes through.
var escaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label appends one `name="value"` pair, the only use of escaper.
func (w *Writer) label(name, value string) {
	w.buf = append(append(w.buf, name...), '=', '"')
	w.buf = append(append(w.buf, escaper.Replace(value)...), '"')
}

// open starts one sample line of the current family: `name+suffix`,
// the label set pairing the declared label names with values (plus le,
// when non-empty, as the last label) and the space before the value. A
// count mismatch is a bug at the call site, not an input condition.
func (w *Writer) open(suffix string, values []string, le string) {
	f := w.fam
	if len(values) != len(f.labels) {
		panic("obs: " + f.name + ": label values do not match the declared labels")
	}
	w.buf = append(append(w.buf, f.name...), suffix...)
	sep := byte('{')
	for i, v := range values {
		w.buf = append(w.buf, sep)
		w.label(f.labels[i], v)
		sep = ','
	}
	if le != "" {
		w.buf = append(w.buf, sep)
		w.label("le", le)
		sep = ','
	}
	if sep == ',' {
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ' ')
}

// Float writes one sample of the current family, rendered like %g (so
// 1e6 prints as 1e+06); values are the family's label values in
// declaration order.
func (w *Writer) Float(v float64, values ...string) {
	w.open("", values, "")
	w.buf = append(strconv.AppendFloat(w.buf, v, 'g', -1, 64), '\n')
}

// Int writes one integer sample of the current family, rendered like %d
// (so 1e6 prints as 1000000).
func (w *Writer) Int(v int64, values ...string) {
	w.open("", values, "")
	w.buf = append(strconv.AppendInt(w.buf, v, 10), '\n')
}

// Hist writes one series of the current histogram family from a local
// snapshot, at the family's declared scale and window.
func (w *Writer) Hist(s HistSnapshot, values ...string) {
	w.Scraped(w.fam.Scraped(s), values...)
}

// Scraped writes one histogram series: a _bucket line per le plus +Inf,
// each with its exemplar annotation (` # {trace_id="..."} value`) when
// the bucket has one, then _sum and _count.
func (w *Writer) Scraped(h ScrapedHist, values ...string) {
	for i := 0; i <= len(h.Les); i++ {
		le, cum := "+Inf", h.Count
		if i < len(h.Les) {
			le, cum = strconv.FormatFloat(h.Les[i], 'g', -1, 64), h.Cum[i]
		}
		w.open("_bucket", values, le)
		w.buf = strconv.AppendUint(w.buf, cum, 10)
		if i < len(h.Exemplars) && h.Exemplars[i].TraceID != "" {
			w.buf = append(w.buf, " # {"...)
			w.label("trace_id", h.Exemplars[i].TraceID)
			w.buf = strconv.AppendFloat(append(w.buf, "} "...), h.Exemplars[i].Value, 'g', -1, 64)
		}
		w.buf = append(w.buf, '\n')
	}
	w.open("_sum", values, "")
	w.buf = append(strconv.AppendFloat(w.buf, h.Sum, 'g', -1, 64), '\n')
	w.open("_count", values, "")
	w.buf = append(strconv.AppendUint(w.buf, h.Count, 10), '\n')
}

// Relabel re-emits a parsed scrape with one label appended to every
// series — how the router keeps per-model series scraped from different
// backends distinguishable. Each sample line is relayed byte for byte
// (value text, timestamp and exemplar untouched) with the label spliced
// in where the quote-aware parser found the series to end; HELP/TYPE
// lines keep their place and are dropped when this Writer has written
// them before. Lines the parser could not read follow unchanged, so a
// backend emitting something outside the grammar shows on the merged
// page instead of vanishing from it.
func (w *Writer) Relabel(s *Scrape, name, value string) {
	mi := 0
	for i := 0; i <= len(s.Samples); i++ {
		for ; mi < len(s.Meta) && s.Meta[mi].at <= i; mi++ {
			w.header(s.Meta[mi].Kind, s.Meta[mi].Name, s.Meta[mi].line)
		}
		if i == len(s.Samples) {
			break
		}
		line, cut := s.Samples[i].line, s.Samples[i].cut
		w.buf = append(w.buf, line[:cut]...)
		if line[cut] == '}' {
			w.buf = append(w.buf, ',')
			w.label(name, value)
		} else { // bare name: open a label block
			w.buf = append(w.buf, '{')
			w.label(name, value)
			w.buf = append(w.buf, '}')
		}
		w.buf = append(append(w.buf, line[cut:]...), '\n')
	}
	for _, line := range s.Malformed {
		w.buf = append(append(w.buf, line...), '\n')
	}
}
