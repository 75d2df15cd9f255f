package obs

import (
	"strings"
	"testing"
	"time"
)

// testSeconds builds an unregistered latency family for in-package
// tests (real families go through the registering constructors).
func testSeconds(name string, labels ...string) *Family {
	return &Family{name: name, help: "test", kind: KindHistogram, labels: labels, scale: 1e9, lo: minExpoBucket, hi: maxExpoBucket}
}

// expose renders one snapshot as a series of f.
func expose(f *Family, s HistSnapshot, values ...string) string {
	var w Writer
	w.Family(f).Hist(s, values...)
	return string(w.Bytes())
}

func TestHistogramExemplarExposition(t *testing.T) {
	var h Histogram
	h.EnableExemplars()
	slow := int64(200 * time.Millisecond)
	h.ObserveTraced(int64(time.Millisecond), "aaaa0000aaaa0000aaaa0000aaaa0000")
	h.ObserveTraced(slow, "bbbb0000bbbb0000bbbb0000bbbb0000")

	f := testSeconds("x_seconds", "model")
	text := expose(f, h.Snapshot(), "m")
	if !strings.Contains(text, `# {trace_id="bbbb0000bbbb0000bbbb0000bbbb0000"}`) {
		t.Fatalf("exposition missing the slow bucket's exemplar:\n%s", text)
	}

	// Exemplar annotations must not break scrape-side parsing, and the
	// annotated value must name the raw observation in the export unit.
	sc := ParseScrape(text)
	if err := sc.Check(); err != nil {
		t.Fatalf("exemplar-annotated exposition does not parse strictly: %v\n%s", err, text)
	}
	hs := MergeHist(f, nil, nil, sc)
	if len(hs) != 1 || hs[0].Hist.Count != 2 {
		t.Fatalf("parsed %+v, want one series of count 2", hs)
	}
	var annotated *Sample
	for i := range sc.Samples {
		if sc.Samples[i].Exemplar.TraceID == "bbbb0000bbbb0000bbbb0000bbbb0000" {
			annotated = &sc.Samples[i]
		}
	}
	if annotated == nil {
		t.Fatalf("no sample carries the slow exemplar:\n%s", text)
	}
	if le, _ := annotated.Label("le"); annotated.Name != "x_seconds_bucket" || le != "0.268435456" || annotated.Value != 2 {
		t.Fatalf("series part of the annotated line misparsed: %+v", annotated)
	}
	if annotated.Exemplar.Value != 0.2 {
		t.Fatalf("exemplar %+v should carry the raw observation 0.2s", annotated.Exemplar)
	}
}

func TestHistogramExemplarLastWriterWins(t *testing.T) {
	var h Histogram
	h.EnableExemplars()
	h.ObserveTraced(1000, "first000first000first000first000")
	h.ObserveTraced(1001, "second00second00second00second00") // same bucket
	text := expose(testSeconds("x_seconds"), h.Snapshot())
	if strings.Contains(text, "first000") || !strings.Contains(text, "second00") {
		t.Fatalf("bucket exemplar should be the most recent observation:\n%s", text)
	}
}

func TestObserveTracedDisabledOrUntraced(t *testing.T) {
	var h Histogram
	h.ObserveTraced(123, "cccc0000cccc0000cccc0000cccc0000") // exemplars never enabled
	if text := expose(testSeconds("x_seconds"), h.Snapshot()); strings.Contains(text, "trace_id") {
		t.Fatalf("exemplar emitted without EnableExemplars:\n%s", text)
	}
	if h.Snapshot().Count != 1 {
		t.Fatal("ObserveTraced lost the observation with exemplars disabled")
	}
}

// TestObserveAllocsWithExemplarsEnabled pins the hot-path contract: the
// plain Observe path stays allocation-free even after exemplar capture
// has been switched on (only traced observations pay the Exemplar box).
func TestObserveAllocsWithExemplarsEnabled(t *testing.T) {
	var h Histogram
	h.EnableExemplars()
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Observe with exemplars enabled allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		h.ObserveTraced(12345, "")
	})
	if allocs != 0 {
		t.Fatalf("untraced ObserveTraced allocates %v/op, want 0", allocs)
	}
}

func BenchmarkHistogramObserveExemplarsEnabled(b *testing.B) {
	var h Histogram
	h.EnableExemplars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveTraced(b *testing.B) {
	var h Histogram
	h.EnableExemplars()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveTraced(int64(i), "feedface00000000feedface00000000")
	}
}
