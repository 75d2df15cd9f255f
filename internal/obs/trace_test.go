package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace id lengths %d/%d, want 32", len(a), len(b))
	}
	if a == b {
		t.Fatal("trace ids collide")
	}
	if strings.Trim(a, "0123456789abcdef") != "" {
		t.Fatalf("trace id %q is not lower-case hex", a)
	}
	if n := testing.AllocsPerRun(10, func() { _ = NewTraceID() }); n > 1 {
		t.Fatalf("%.0f allocations per trace id, want 1", n)
	}
}

func TestTraceRingRecentSlowest(t *testing.T) {
	r := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		r.Add(&Trace{ID: NewTraceID(), TotalMs: float64(i), Status: 200})
	}
	if r.Len() != 6 {
		t.Fatalf("len = %d", r.Len())
	}
	recent := r.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent = %d entries, want 4 (ring depth)", len(recent))
	}
	// Newest first; entries 1 and 2 overwritten.
	if recent[0].TotalMs != 6 || recent[3].TotalMs != 3 {
		t.Fatalf("recent order wrong: %v..%v", recent[0].TotalMs, recent[3].TotalMs)
	}
	slow := r.Slowest(2)
	if len(slow) != 2 || slow[0].TotalMs != 6 || slow[1].TotalMs != 5 {
		t.Fatalf("slowest wrong")
	}
}

func TestTraceRingHandler(t *testing.T) {
	r := NewTraceRing(8)
	tr := &Trace{
		ID: "deadbeef", Model: "m", Class: "interactive",
		Start: time.Now(), TotalMs: 1.5, Status: 200, Rows: 2,
		Spans: []Span{
			MkSpan("admission", 0, 100*time.Microsecond),
			MkSpan("queue", 100*time.Microsecond, time.Millisecond),
		},
	}
	r.Add(tr)
	req := httptest.NewRequest("GET", "/debug/traces?n=5", nil)
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	var view struct {
		Total   uint64   `json:"total"`
		Recent  []*Trace `json:"recent"`
		Slowest []*Trace `json:"slowest"`
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatalf("bad json: %v\n%s", err, w.Body.String())
	}
	if view.Total != 1 || len(view.Recent) != 1 || len(view.Slowest) != 1 {
		t.Fatalf("view = %+v", view)
	}
	got := view.Recent[0]
	if got.ID != "deadbeef" || len(got.Spans) != 2 || got.Spans[1].Name != "queue" {
		t.Fatalf("trace round-trip wrong: %+v", got)
	}
	if got.Spans[1].DurMs != 1.0 {
		t.Fatalf("span duration = %v, want 1ms", got.Spans[1].DurMs)
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(&Trace{ID: NewTraceID(), TotalMs: float64(i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = r.Recent(8)
			_ = r.Slowest(4)
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != 4000 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestSpanLine(t *testing.T) {
	tr := &Trace{Spans: []Span{
		MkSpan("queue", 0, 1200*time.Microsecond),
		MkSpan("execute", 0, 3400*time.Microsecond),
	}}
	got := tr.SpanLine()
	want := "queue=1.200ms execute=3.400ms"
	if got != want {
		t.Fatalf("SpanLine = %q, want %q", got, want)
	}
}

func TestRequestTraceID(t *testing.T) {
	hex32 := "feedface00000000feedface00000000"
	for _, tc := range []struct {
		name, in string
		honoured bool
	}{
		{"empty", "", false},
		{"32 hex", hex32, true},
		{"64 bytes", strings.Repeat("aB3_-xyz", 8), true},
		{"65 bytes", strings.Repeat("a", 65), false},
		{"space", "cafe cafe", false},
		{"quote", `cafe"cafe`, false},
		{"newline", "cafe\ncafe", false},
		{"non-ASCII", "café0000", false},
	} {
		h := http.Header{}
		if tc.in != "" {
			h[HeaderTraceID] = []string{tc.in}
		}
		got := RequestTraceID(h)
		if tc.honoured && got != tc.in {
			t.Errorf("%s: got %q, want the incoming ID honoured", tc.name, got)
		}
		if !tc.honoured && (got == tc.in || len(got) != 32 || strings.Trim(got, "0123456789abcdef") != "") {
			t.Errorf("%s: got %q, want a freshly minted 32-hex ID", tc.name, got)
		}
	}
	h := http.Header{HeaderTraceID: []string{hex32}}
	if allocs := testing.AllocsPerRun(100, func() { RequestTraceID(h) }); allocs != 0 {
		t.Errorf("honouring an ID allocates %v/op, want 0", allocs)
	}
}
