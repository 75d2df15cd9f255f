package serve

import (
	"fmt"
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
	b.Logf("mean batch %.1f over %d batches", s.MeanBatch, s.Batches)
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
