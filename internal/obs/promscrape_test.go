package obs

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// hostile is a label value holding everything a client-chosen model name
// or trace ID could use to break a line-oriented reader.
const hostile = "a # {b}=\"c\\\n,le=\"1\"} 7 # {trace_id=\"x\"} 1"

// roundTrip writes one histogram series and one gauge whose label value
// and exemplar trace ID are arbitrary strings, reads the text back and
// fails unless the parser recovers exactly what the Writer was given —
// and unless relabelling the scrape changes nothing but the added label.
func roundTrip(t *testing.T, label, traceID string, count uint64) {
	t.Helper()
	count &= 1<<53 - 1 // a sample's value is a float64: counts are exact below 2^53
	hist := testSeconds("radixserve_rt_seconds", "model", "class")
	gauge := &Family{name: "radixserve_rt_depth", help: "test", kind: KindGauge, labels: []string{"model"}}
	var h Histogram
	h.EnableExemplars()
	h.ObserveTraced(int64(3*time.Millisecond), traceID)
	want := hist.Scraped(h.Snapshot())
	want.Count, want.Cum[len(want.Cum)-1] = want.Count+count, want.Cum[len(want.Cum)-1]+count

	var w Writer
	w.Family(hist).Scraped(want, label, "c")
	w.Family(gauge).Float(float64(count)/3, label)
	text := string(w.Bytes())
	sc := ParseScrape(text)
	if err := sc.Check(); err != nil {
		t.Fatalf("own exposition does not parse strictly: %v\n%s", err, text)
	}
	got := MergeHist(hist, []string{"model"}, []Label{{"class", "c"}}, sc)
	if len(got) != 1 || got[0].Values[0] != label {
		t.Fatalf("label value %q read back as %+v\n%s", label, got, text)
	}
	if traceID == "" {
		want.Exemplars = make([]ScrapedExemplar, len(want.Les)+1) // parsed series always carry the slots
	}
	if !reflect.DeepEqual(got[0].Hist, want) {
		t.Fatalf("histogram read back as\n%+v\nwant\n%+v\n%s", got[0].Hist, want, text)
	}
	last := sc.Samples[len(sc.Samples)-1]
	if v, _ := last.Label("model"); last.Name != gauge.name || v != label || last.Value != float64(count)/3 {
		t.Fatalf("gauge read back as %+v\n%s", last, text)
	}

	var rw Writer
	rw.Relabel(sc, "backend", label)
	relabelled := ParseScrape(string(rw.Bytes()))
	if err := relabelled.Check(); err != nil || len(relabelled.Samples) != len(sc.Samples) || len(relabelled.Meta) != len(sc.Meta) {
		t.Fatalf("relabelled exposition: %v, %d samples (want %d)\n%s", err, len(relabelled.Samples), len(sc.Samples), rw.Bytes())
	}
	for i, sm := range relabelled.Samples {
		orig := sc.Samples[i]
		if sm.Name != orig.Name || sm.Value != orig.Value || sm.Exemplar != orig.Exemplar ||
			!reflect.DeepEqual(sm.Labels, append(append([]Label(nil), orig.Labels...), Label{"backend", label})) {
			t.Fatalf("sample %d relabelled to %+v, from %+v", i, sm, orig)
		}
	}
}

func TestParseScrapeRoundTripsHostileValues(t *testing.T) {
	for _, v := range []string{"m", "", hostile, `\`, `"`, "\n", `\n`, `\\"`, "{", "}", ",", ` # `, `le="+Inf"`, "caf\xe9", "\x00\t\r"} {
		roundTrip(t, v, v, 1_000_000)
	}
}

func TestParseScrapeLines(t *testing.T) {
	for _, tc := range []struct {
		line string
		ok   bool
	}{
		{`x 3`, true},
		{`x{a="b"} 3`, true},
		{`x_total{a="b"} 1e+06`, true},
		{`x{a="b"} -3`, true}, // a gauge may be negative
		{`x_total 1027 1712345678000`, true},
		{`x_bucket{le="1"} 2 # {trace_id="t"} 0.5`, true},
		{`x_bucket{le="1"} 2 1712345678000 # {trace_id="t"} 0.5`, true},
		// A gauge may be anything a float64 is; a count that is negative or
		// not finite is rejected here, once.
		{`x NaN`, true},
		{`x +Inf`, true},
		{`x_sum -Inf`, true},
		{`x 3e999`, false},
		{`x_total -1`, false},
		{`x_total NaN`, false},
		{`x_bucket{le="1"} -1`, false},
		{`x_bucket{le="1"} +Inf`, false},
		{`x_count{a="b"} -0.5`, false},
		// Anything but the Writer's grammar.
		{`x`, false},
		{`x `, false},
		{` x 3`, false},
		{`x  3`, false},
		{`x 3 `, false},
		{`x three`, false},
		{`{a="b"} 3`, false},
		{`x{} 3`, false},
		{`x{a="b",} 3`, false},
		{`x{a="b" } 3`, false},
		{`x{a=b} 3`, false},
		{`x{="b"} 3`, false},
		{`x{a="b} 3`, false},
		{`x{a="b\"} 3`, false},
		{`x{a="b\t"} 3`, false},
		{`x{a="b"}3`, false},
		{`x{a="b"} 3 #`, false},
		{`x{a="b"} 3 # {span_id="s"} 1`, false},
		{`x{a="b"} 3 # {trace_id=""} 1`, false},
		{`x{a="b"} 3 # {trace_id="t"}`, false},
		{`x{a="b"} 3 # {trace_id="t"} 1 2`, false},
	} {
		sc := ParseScrape(tc.line + "\n")
		if ok := len(sc.Samples) == 1 && len(sc.Malformed) == 0; ok != tc.ok {
			t.Errorf("%q: parsed %+v, malformed %q; want well-formed=%v", tc.line, sc.Samples, sc.Malformed, tc.ok)
		}
		if !tc.ok && (len(sc.Malformed) != 1 || sc.Malformed[0] != tc.line) {
			t.Errorf("%q: Malformed = %q, want the line reported", tc.line, sc.Malformed)
		}
	}
}

// TestMergeHistSharesNoMemoryWithScrape: a parsed label value or trace ID
// is a substring of the scrape body (up to 64 MB per backend), and
// MergeHist's results are what the router's SLO engine and autoscaler
// retain between cycles — so nothing in them may point into the text.
func TestMergeHistSharesNoMemoryWithScrape(t *testing.T) {
	text := strings.Repeat("# padding\n", 100) +
		`radixserve_rt_seconds_bucket{model="mmmm",le="0.001"} 1 # {trace_id="tttt"} 0.0005` + "\n" +
		`radixserve_rt_seconds_bucket{model="mmmm",le="+Inf"} 2 # {trace_id="uuuu"} 3` + "\n" +
		`radixserve_rt_seconds_count{model="mmmm"} 2` + "\n"
	inText := func(s string) bool {
		p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(text)))
		return s != "" && p >= base && p < base+uintptr(len(text))
	}
	sc := ParseScrape(text)
	if v, _ := sc.Samples[0].Label("model"); !inText(v) || !inText(sc.Samples[0].Exemplar.TraceID) {
		t.Fatal("the parser copied its strings: this test no longer exercises the aliasing it guards against")
	}
	got := MergeHist(testSeconds("radixserve_rt_seconds", "model"), []string{"model"}, nil, sc)
	if len(got) != 1 || got[0].Values[0] != "mmmm" || got[0].Hist.Exemplars[0].TraceID != "tttt" || got[0].Hist.Exemplars[1].TraceID != "uuuu" {
		t.Fatalf("merged %+v", got)
	}
	for _, s := range []string{got[0].Key, got[0].Values[0], got[0].Hist.Exemplars[0].TraceID, got[0].Hist.Exemplars[1].TraceID} {
		if inText(s) {
			t.Errorf("merged series holds %q as a substring of the scrape text", s)
		}
	}
}

func TestScrapeCheck(t *testing.T) {
	for _, tc := range []struct{ name, text, want string }{
		{"clean", "# HELP x h\n# TYPE x gauge\nx{a=\"1\"} 3\nx{a=\"2\"} 3\n\n# a comment\n", ""},
		{"malformed line", "x 3\ny\n", `malformed line "y"`},
		{"duplicate series", "x{a=\"1\"} 3\nx{a=\"1\"} 4\n", `duplicate x{a="1"}`},
		{"duplicate bare series", "x 3\nx 4\n", "duplicate x"},
		{"duplicate header", "# TYPE x gauge\n# TYPE x gauge\n", "duplicate TYPE x"},
		{"unknown type", "# TYPE x summary\n", "malformed TYPE line"},
	} {
		err := ParseScrape(tc.text).Check()
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Check() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseScrape holds the one writer and the one reader to each other.
// Whatever the Writer emits for arbitrary label values, counts and
// exemplar IDs, the parser reads back exactly (roundTrip). Arbitrary
// bytes never panic, and never yield a sample unless rendering its parsed
// fields reproduces the line: a mis-split label block or exemplar cannot
// pass silently as a well-formed sample of something else.
func FuzzParseScrape(f *testing.F) {
	var w Writer
	var h Histogram
	h.EnableExemplars()
	h.ObserveTraced(int64(5*time.Millisecond), "aaaa0000aaaa0000aaaa0000aaaa0000")
	h.Observe(int64(3 * time.Second))
	w.Family(testSeconds("x_seconds", "model")).Hist(h.Snapshot(), "m")
	f.Add(string(w.Bytes()), "m", "aaaa0000aaaa0000aaaa0000aaaa0000", uint64(2))
	f.Add(`x_seconds_bucket{le="0.001"} 1`+"\n"+`x_seconds_count 1`, hostile, hostile, uint64(1)<<63)
	f.Add(`x_seconds_bucket{le="0.001"} 1 # {trace_id="zz"} 0.0005`, `\`, `"`, uint64(0))
	f.Add("x_seconds_bucket{le=\"0.001\"} NaN\nx_seconds_sum{} nope", "\n", `\n`, uint64(1_000_000))
	f.Add("# HELP x_seconds broken\nx_seconds_bucket{le=} }{", `a # {b}="c\`, "", uint64(7))
	f.Add("x NAN\nx_sum -inf\nx_total{} 7\nx_count Inf", "0", "0", uint64(1_000_000))
	f.Add(`x{a="a # {b}=\"c\\",le="1"} 7 1712345678000 # {trace_id="} 1 # {"} 0.5`, "", "t", uint64(3))
	f.Fuzz(func(t *testing.T, text, label, traceID string, count uint64) {
		roundTrip(t, label, traceID, count)

		sc := ParseScrape(text)
		lines := strings.Split(text, "\n")
		if n := len(sc.Samples) + len(sc.Malformed) + len(sc.Meta); n > len(lines) {
			t.Fatalf("%d lines yielded %d samples, headers and malformed lines", len(lines), n)
		}
		for _, sm := range sc.Samples {
			var rw Writer
			rw.fam = &Family{name: sm.Name}
			for _, l := range sm.Labels {
				rw.fam.labels = append(rw.fam.labels, l.Name)
			}
			values := make([]string, len(sm.Labels))
			for i, l := range sm.Labels {
				values[i] = l.Value
			}
			rw.open("", values, "")
			rest, ok := strings.CutPrefix(sm.line, string(rw.buf))
			if !ok {
				t.Fatalf("sample %+v does not render back to its line %q", sm, sm.line)
			}
			value, exemplar, annotated := strings.Cut(rest, " # ")
			value, _, _ = strings.Cut(value, " ") // drop a timestamp
			// v != v is a NaN gauge, which equals nothing, itself included.
			if v, err := strconv.ParseFloat(value, 64); err != nil || (v != sm.Value && v == v) {
				t.Fatalf("sample %+v: value does not match its line %q", sm, sm.line)
			}
			if annotated != (sm.Exemplar.TraceID != "") {
				t.Fatalf("sample %+v: exemplar does not match its line %q", sm, sm.line)
			}
			if annotated {
				rw.buf = append(rw.buf[:0], '{')
				rw.label("trace_id", sm.Exemplar.TraceID)
				tok, ok := strings.CutPrefix(exemplar, string(rw.buf)+"} ")
				if v, err := strconv.ParseFloat(tok, 64); !ok || err != nil || (v != sm.Exemplar.Value && v == v) {
					t.Fatalf("sample %+v: exemplar does not render back to its line %q", sm, sm.line)
				}
			}
		}
		// Relaying a scrape never loses or invents a series, and a line the
		// parser could not read is relayed as it came.
		var rw Writer
		rw.Relabel(sc, "backend", label)
		if again := ParseScrape(string(rw.Bytes())); len(again.Samples) != len(sc.Samples) || !reflect.DeepEqual(again.Malformed, sc.Malformed) {
			t.Fatalf("relabelled scrape parses to %d samples and malformed lines %q, want %d and %q:\n%s", len(again.Samples), again.Malformed, len(sc.Samples), sc.Malformed, rw.Bytes())
		}
	})
}
