package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// benchConfig is the serving benchmark network: radix [8,8,8] → width 512,
// 3 layers — big enough that batching matters, small enough for CI smoke.
func benchConfig(b *testing.B) core.Config {
	b.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkServe_Microbatch measures end-to-end rows/s through the
// registry + micro-batcher (no HTTP) at several client concurrency levels.
// This is the scheduler's headline number: single-row requests from
// concurrent clients coalescing into dense engine batches.
func BenchmarkServe_Microbatch(b *testing.B) {
	cfg := benchConfig(b)
	reg := NewRegistry(Policy{MaxBatch: 64, MaxLatency: 500 * time.Microsecond, QueueDepth: 4096})
	defer reg.Close()
	m, err := reg.Register("bench", cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	const inputRows = 64
	in, err := dataset.SparseBatch(inputRows, m.InputWidth(), m.InputWidth()/10, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, conc := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]float64, m.OutputWidth())
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						if err := doRow(m, in.RowSlice(int(i%inputRows)), out); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	s := m.Metrics().Snapshot()
	b.Logf("mean batch %.1f over %d batches", float64(s.BatchedRows)/float64(max(s.Batches, 1)), s.Batches)
}

// discardWriter is the cheapest http.ResponseWriter: headers kept, body
// dropped, so a handler benchmark counts the handler's allocations and not a
// recorder's growing buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// handlerFixture registers cfg under "m" and returns a function that posts
// one request of rows SparseBatch rows through the server's handler, with no
// socket, and fails tb unless it is answered 200. It has run a few times
// already, so both engines have sized their scratch and the pools are full.
func handlerFixture(tb testing.TB, cfg core.Config, rows int) func() {
	tb.Helper()
	reg := NewRegistry(Policy{})
	tb.Cleanup(reg.Close)
	m, err := reg.Register("m", cfg, 2)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := dataset.SparseBatch(rows, m.InputWidth(), m.InputWidth()/10, 1)
	if err != nil {
		tb.Fatal(err)
	}
	inputs := make([][]float64, rows)
	for i := range inputs {
		inputs[i] = in.RowSlice(i)
	}
	body, err := json.Marshal(InferRequest{Model: "m", Inputs: inputs})
	if err != nil {
		tb.Fatal(err)
	}
	h := NewServer(reg, "127.0.0.1:0").Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", rd)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(w.h)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			tb.Fatalf("status %d", w.code)
		}
	}
	for range 4 {
		serve()
	}
	return serve
}

// bytesPerRow runs serve n times and returns the bytes allocated per row
// served, process-wide: the batcher's and the engine's goroutines count.
func bytesPerRow(serve func(), n, rows int) (bytesPerRow, allocsPerRow float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		serve()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n*rows), float64(m1.Mallocs-m0.Mallocs) / float64(n*rows)
}

// BenchmarkHandleInfer drives POST /v1/infer through the server's handler
// with no socket: an 8-row request to Graph Challenge 1024×24, the shape of
// the serve_gc1024x24_burst2 benchmark workload, and a single 512-wide row,
// the shape of serve_row512_c1. B/row is what the request path allocates
// per row served beyond the transport; the rows' own 8 KB of payload is the
// scale to read it against.
func BenchmarkHandleInfer(b *testing.B) {
	gc, err := core.GraphChallengeConfig(1024, 24)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  core.Config
		rows int
	}{{"gc1024x24_rows8", gc, 8}, {"row512_rows1", benchConfig(b), 1}} {
		b.Run(c.name, func(b *testing.B) {
			serve := handlerFixture(b, c.cfg, c.rows)
			b.ResetTimer()
			perRow, allocs := bytesPerRow(serve, b.N, c.rows)
			b.StopTimer()
			b.ReportMetric(perRow, "B/row")
			b.ReportMetric(allocs, "allocs/row")
		})
	}
}

// BenchmarkServe_UnbatchedBaseline is the number the micro-batcher is
// judged against: one engine, one row per Infer, serial — what a naive
// per-request serving loop would do.
func BenchmarkServe_UnbatchedBaseline(b *testing.B) {
	cfg := benchConfig(b)
	eng, err := infer.FromConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	widths := cfg.LayerWidths()
	in, err := dataset.SparseBatch(64, widths[0], widths[0]/10, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]*sparse.Dense, in.Rows())
	for r := range rows {
		var err error
		rows[r], err = sparse.DenseFromSlice(1, in.Cols(), in.RowSlice(r))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Infer(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
