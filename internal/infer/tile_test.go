package infer

import (
	"fmt"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/nn"
	"github.com/radix-net/radixnet/internal/parallel"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// onPool points e at a private pool of the given worker count for the test.
func onPool(t testing.TB, e *Engine, workers int) {
	t.Helper()
	p := parallel.NewPool(workers)
	t.Cleanup(p.Close)
	e.SetPool(p)
}

// configEngine builds the given numeral systems, lifted by shape when it is
// not nil, as the given kind.
func configEngine(t testing.TB, kind KernelKind, shape []int, systems ...[]int) *Engine {
	t.Helper()
	var sys []radix.System
	for _, rs := range systems {
		sys = append(sys, radix.MustNew(rs...))
	}
	cfg, err := core.NewConfig(sys, shape)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromConfigKernel(cfg, kind)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// killRows zeroes every second row of batch.
func killRows(batch *sparse.Dense) {
	for r := 1; r < batch.Rows(); r += 2 {
		clear(batch.RowSlice(r))
	}
}

// TestInferIndependentOfWorkers: rows of a batch never interact, so how a
// batch is cut into tiles — by the pool's worker count, by its size against
// the gather blocks and tileRows — changes no bit of any row, no row's live
// count entering any layer, and no category: every cut equals ReferenceInfer
// word for word, on both kinds and on the paths only some rows take (dead
// rows, rows a positive bias brings back, layers off the shared weight).
func TestInferIndependentOfWorkers(t *testing.T) {
	gc := [][]int{{32, 32}, {32, 32}, {32, 32}}
	cases := []struct {
		name  string
		e     *Engine
		tweak func(e *Engine, batch *sparse.Dense)
	}{
		{"gc1024x6", configEngine(t, KernelAuto, nil, gc...), nil},
		{"(8,8,8)", configEngine(t, KernelAuto, nil, []int{8, 8, 8}), nil},
		// Widths 128, 64, 192, 64, 128: a row's slot in a shared buffer would
		// move from layer to layer.
		{"lifted", configEngine(t, KernelAuto, []int{2, 1, 3, 1, 2}, []int{8, 8}, []int{8, 8}), nil},
		{"csc", configEngine(t, KernelCSC, nil, gc...), nil},
		{"one perturbed layer", configEngine(t, KernelAuto, nil, gc...), func(e *Engine, _ *sparse.Dense) { perturbLayer(e, 3, 5) }},
		{"positive biases", configEngine(t, KernelAuto, nil, gc...), func(e *Engine, batch *sparse.Dense) {
			copy(e.bias, []float64{-0.1, -40, 0.2, -0.1, 0.2, -0.1})
			killRows(batch)
		}},
		{"alternate rows dead", configEngine(t, KernelAuto, nil, gc...), func(_ *Engine, batch *sparse.Dense) { killRows(batch) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, width := c.e, c.e.layers[0].Rows()
			full, err := dataset.SparseBatch(70, width, max(1, width/10), 26)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < full.Rows(); r += 5 { // every fifth row dense: gathers beside scatters
				for i := range full.RowSlice(r) {
					full.Set(r, i, float64(1+(r+i)%7)/8)
				}
			}
			if c.tweak != nil {
				c.tweak(e, full)
			}
			want, err := e.ReferenceInfer(full)
			if err != nil {
				t.Fatal(err)
			}
			wantArgmax := nn.Argmax(want)
			var wantRows []int64 // rows live entering each layer, as one worker counts them
			for _, workers := range []int{1, 2, 3, 5} {
				onPool(t, e, workers)
				for _, rows := range []int{1, 7, 8, 9, 33, 64, 70} {
					what := fmt.Sprintf("%d workers, %d rows", workers, rows)
					batch, _ := full.RowsView(0, rows)
					wantHead, _ := want.RowsView(0, rows)
					sameBits(t, what, mustInfer(t, e, batch), wantHead)
				}
				e.EnableProfiling(1)
				active, argmax, err := e.InferCategories(full)
				if err != nil {
					t.Fatal(err)
				}
				snap, _ := e.Profile()
				e.DisableProfiling()
				for r := range active {
					positive := false
					for _, v := range want.RowSlice(r) {
						positive = positive || v > 0
					}
					if active[r] != positive || argmax[r] != wantArgmax[r] {
						t.Fatalf("%d workers: row %d is category (%t, %d), want (%t, %d)", workers, r, active[r], argmax[r], positive, wantArgmax[r])
					}
				}
				for l, lp := range snap.Layers {
					if workers == 1 {
						wantRows = append(wantRows, lp.Rows)
					} else if lp.Rows != wantRows[l] {
						t.Fatalf("%d workers: %d rows live entering layer %d, one worker counted %d", workers, lp.Rows, l, wantRows[l])
					}
				}
			}
		})
	}
}

// TestScratchFollowsWorkersNotBatch: all an engine holds that grows with the
// batch is its output; what its layers exchange lives in at most one tile set
// per pool worker, each tileRows high, however many rows arrive.
func TestScratchFollowsWorkersNotBatch(t *testing.T) {
	const rows, width = 256, 1024
	e := configEngine(t, KernelAuto, nil, repeat([]int{32, 32}, 12)...)
	onPool(t, e, 2)
	batch, err := dataset.SparseBatch(rows, width, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustInfer(t, e, batch)
	}
	if len(e.free) < 1 || len(e.free) > e.pool.Workers() {
		t.Fatalf("%d tile sets idle after a batch on %d workers", len(e.free), e.pool.Workers())
	}
	held := cap(e.out) + cap(e.stage)
	for _, s := range e.free {
		held += cap(s.buf[0]) + cap(s.buf[1]) + cap(s.scratch)
	}
	if limit := rows*width + e.pool.Workers()*(2*tileRows+1)*width; held > limit {
		t.Fatalf("engine holds %d floats after %d rows, want at most %d", held, rows, limit)
	}
}

// repeat returns n copies of sys.
func repeat(sys []int, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = sys
	}
	return out
}

// BenchmarkInferWorkers is the in-tree twin of the harness's parallel.speedup:
// one engine's batch on a private pool of one worker and of two, on the shapes
// the benchmark's workloads run and the two that change what a tile holds — a
// stack off the shared weight, and a batch whose tiles are half dead — plus
// written weights on 1024×24 and on (8,8,8) (width 512) at one row and eight,
// where every layer runs per column on its own values rather than a quotient.
func BenchmarkInferWorkers(b *testing.B) {
	gc := func(layers int) [][]int { return repeat([]int{32, 32}, layers/2) }
	for _, c := range []struct {
		name          string
		systems       [][]int
		width, rows   int
		perturb, dead bool
	}{
		{"gc1024x120_b64", gc(120), 1024, 64, false, false},
		{"gc1024x120_b64_perturbed", gc(120), 1024, 64, true, false},
		{"gc1024x120_b64_halfdead", gc(120), 1024, 64, false, true},
		{"gc1024x24_b16", gc(24), 1024, 16, false, false},
		{"gc1024x24_b64_perturbed", gc(24), 1024, 64, true, false},
		{"r888_b1_perturbed", [][]int{{8, 8, 8}}, 512, 1, true, false},
		{"r888_b8_perturbed", [][]int{{8, 8, 8}}, 512, 8, true, false},
	} {
		e := configEngine(b, KernelAuto, nil, c.systems...)
		if c.perturb {
			e.PerturbWeights(0.01, 1)
		}
		batch, err := dataset.SparseBatch(c.rows, c.width, c.width/10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if c.dead {
			killRows(batch)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				onPool(b, e, workers)
				mustInfer(b, e, batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Infer(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/batch")
			})
		}
	}
}
