package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/sparse"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// clockFamilies are the families whose VALUES only a clock or the Go
// runtime can produce; the golden comparison masks their values and
// still compares their HELP/TYPE/label text.
var clockFamilies = map[string]bool{
	"radixserve_uptime_seconds":              true,
	"radixserve_goroutines":                  true,
	"radixserve_heap_alloc_bytes":            true,
	"radixserve_gc_pause_seconds_total":      true,
	"radixserve_gc_cycles_total":             true,
	"radixserve_engine_layer_seconds_total":  true,
	"radixserve_engine_layer_gedges_per_sec": true,
	"radixserve_engine_gedges_per_sec":       true,
	"radixserve_slo_fast_burn":               true,
	"radixserve_slo_slow_burn":               true,
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

// TestGoldenExposition pins the serve tier's /metrics wire text: one
// model, the default three classes, engine profiling on, one SLO
// objective. The state is injected, not timed — counters, histograms,
// windowed maxima and exemplars are driven directly with fixed values
// and trace IDs — so every byte except the clock- and runtime-derived
// values is reproducible.
func TestGoldenExposition(t *testing.T) {
	cfg := testConfig(t)
	reg := NewRegistry(Policy{MaxBatch: 4, MaxLatency: time.Millisecond, QueueDepth: 7})
	reg.SetProfileEvery(1)
	m, err := reg.Register("m", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	if _, err := reg.Reload("m", cfg); err != nil { // generation 2
		t.Fatal(err)
	}
	objectives, err := slo.ParseObjectives([]string{"m:interactive:5ms:99"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerOpts(reg, "127.0.0.1:0", ServerOptions{SLO: objectives})

	// One profiled batch straight through a leased engine: the profiler
	// tallies edges (deterministic) and kernel time (masked) without
	// touching any serving counter.
	eng := m.Lease()
	in, err := sparse.DenseFromSlice(2, m.InputWidth(), make([]float64, 2*m.InputWidth()))
	if err != nil {
		t.Fatal(err)
	}
	in.RowSlice(0)[1] = 1
	in.RowSlice(1)[2] = 1
	if _, err := eng.Infer(in); err != nil {
		t.Fatal(err)
	}
	m.Release(eng)

	// The model's accepted, rejected, expired and completed rows, its
	// batches, batched rows and engine-busy time are read from the class
	// counters and the histograms below, as on a live server.
	met := &m.met
	met.Failed.Store(2)
	met.MaxLatency.Store(int64(30 * time.Second))
	met.Reloads.Store(1)
	const (
		idA = "aaaa0000aaaa0000aaaa0000aaaa0000"
		idB = "bbbb1111bbbb1111bbbb1111bbbb1111"
		idC = "cccc2222cccc2222cccc2222cccc2222"
		idD = "dddd3333dddd3333dddd3333dddd3333"
	)
	// Latency: one below the ladder (folds into the first bucket, with
	// its exemplar), two inside, one past it (+Inf exemplar), one
	// untraced.
	met.LatencyHist.ObserveTraced(100, idA)
	met.LatencyHist.ObserveTraced(int64(3*time.Millisecond), idB)
	met.LatencyHist.ObserveTraced(int64(40*time.Millisecond), idC)
	met.LatencyHist.ObserveTraced(int64(30*time.Second), idD)
	met.LatencyHist.Observe(int64(3 * time.Millisecond))
	met.WinLatency.Observe(int64(40 * time.Millisecond))
	met.ExecHist.Observe(int64(200 * time.Microsecond))
	met.ExecHist.Observe(int64(800 * time.Microsecond))
	for _, rows := range []int64{1, 3, 4, 4, 5000} { // 5000 is past the 4096-row window
		met.BatchHist.Observe(rows)
	}
	inter, back := met.class(0), met.class(2)
	inter.Accepted.Store(2_000_000) // %g renders 2e+06, and the model's 2.000003e+06
	inter.Rejected.Store(5)
	inter.Expired.Store(1)
	inter.MaxWaitNs.Store(int64(9 * time.Millisecond))
	inter.WinWait.Observe(int64(2 * time.Millisecond))
	inter.WaitHist.ObserveTraced(int64(50*time.Microsecond), idA)
	inter.WaitHist.ObserveTraced(int64(2*time.Millisecond), idB)
	inter.LatencyHist.ObserveTraced(int64(3*time.Millisecond), idB)
	inter.LatencyHist.ObserveTraced(int64(40*time.Millisecond), idC)
	back.Accepted.Store(3)
	back.WaitHist.ObserveTraced(int64(700*time.Millisecond), idD)
	back.LatencyHist.Observe(int64(900 * time.Millisecond))
	s.status2xx.Store(41)
	s.status4xx.Store(2)
	s.status5xx.Store(1)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	compareGolden(t, "testdata/metrics.golden", maskClockValues(rec.Body.String(), clockFamilies))
}
