package cluster

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs/slo"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// clockFamilies are the router's own families whose VALUES only a clock
// or the Go runtime can produce; the golden comparison masks their values
// and still compares their HELP/TYPE/label text. The backend scrapes are
// fixed files, so nothing of theirs is masked.
var clockFamilies = map[string]bool{
	"radixrouter_uptime_seconds":         true,
	"radixrouter_goroutines":             true,
	"radixrouter_heap_alloc_bytes":       true,
	"radixrouter_gc_pause_seconds_total": true,
	"radixrouter_gc_cycles_total":        true,
	"radixrouter_slo_fast_burn":          true,
	"radixrouter_slo_slow_burn":          true,
}

// maskClockValues replaces the value of every sample of a masked family
// with "*", leaving every other byte of the exposition alone.
func maskClockValues(text string, masked map[string]bool) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if masked[name] {
			lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "*"
		}
	}
	return strings.Join(lines, "\n")
}

// compareGolden fails unless got equals the golden file byte for byte
// (-update rewrites the file instead).
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// cannedBackends is an http.RoundTripper that answers GET /metrics for
// each backend host from a fixed file, so the router under test has
// stable backend ids and byte-stable scrapes without any socket.
type cannedBackends map[string]string // host → /metrics body

func (c cannedBackends) RoundTrip(r *http.Request) (*http.Response, error) {
	body, ok := c[r.URL.Host]
	if !ok || r.URL.Path != "/metrics" {
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Request: r}, nil
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(body)), Request: r}, nil
}

// TestGoldenExposition pins the router tier's /metrics wire text: two
// synthetic backend scrapes (one model on the first, two on the second,
// exemplars on both) merged bucket-wise and re-emitted backend-labelled,
// SLO on, and the router's own counters and per-backend stats injected
// with fixed values.
func TestGoldenExposition(t *testing.T) {
	backends := cannedBackends{}
	for host, file := range map[string]string{
		"backend-a:8080": "testdata/backend_a.metrics",
		"backend-b:8080": "testdata/backend_b.metrics",
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		backends[host] = string(data)
	}
	objectives, err := slo.ParseObjectives([]string{"m::5ms:99", "*:interactive:error:99.9"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Backends: []string{"backend-a:8080", "backend-b:8080"},
		SLO:      objectives,
		Set:      SetConfig{ProbeInterval: time.Hour, Client: &http.Client{Transport: backends}},
	})
	if err != nil {
		t.Fatal(err)
	}

	rt.met.requests.Store(1_000_000) // %d renders 1000000
	rt.met.failovers.Store(12)
	rt.met.backoffs.Store(3)
	rt.met.unroutable.Store(1)
	rt.met.deadlines.Store(2)
	rt.met.admin.Store(5)
	rt.met.shed.Store(4)
	rt.met.scaleUps.Store(2)
	rt.met.scaleDowns.Store(1)
	for class, n := range map[string]int{"interactive": 3, "default": 2, "other": 1} {
		for i := 0; i < n; i++ {
			rt.met.classRequest(class)
		}
	}
	a, _ := rt.set.Backend("backend-a:8080")
	b, _ := rt.set.Backend("backend-b:8080")
	a.forwarded.Store(2_500_000)
	a.failed.Store(7)
	a.probeFailures.Store(1)
	a.attempt.Observe(int64(900 * time.Microsecond))
	a.attempt.Observe(int64(6 * time.Millisecond))
	b.forwarded.Store(40)
	b.attempt.Observe(int64(2 * time.Millisecond))

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	compareGolden(t, "testdata/metrics.golden", maskClockValues(rec.Body.String(), clockFamilies))
}

// BenchmarkRouterMetricsMerge prices one router GET /metrics for three
// backends × two models with SLO on: everything the handler does with
// the scraped text (the canned transport makes the fetch itself free).
func BenchmarkRouterMetricsMerge(b *testing.B) {
	data, err := os.ReadFile("testdata/backend_b.metrics")
	if err != nil {
		b.Fatal(err)
	}
	backends := cannedBackends{}
	var addrs []string
	for _, host := range []string{"backend-a:8080", "backend-b:8080", "backend-c:8080"} {
		backends[host] = string(data)
		addrs = append(addrs, host)
	}
	objectives, err := slo.ParseObjectives([]string{"m::5ms:99", "*:interactive:error:99.9"})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Backends: addrs,
		SLO:      objectives,
		Set:      SetConfig{ProbeInterval: time.Hour, Client: &http.Client{Transport: backends}},
	})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("/metrics: status %d", rec.Code)
		}
	}
}
