package infer

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/sparse"
)

// scatterSpy counts the rows a layer scatters.
type scatterSpy struct {
	layerKernel
	rows *atomic.Int64
}

func (s scatterSpy) scatter(out, in []float64, bias, clip float64) int {
	s.rows.Add(1)
	return s.layerKernel.scatter(out, in, bias, clip)
}

// TestStructuredLayersGatherEveryRow: a row 3 % live entering a closing layer
// is gathered by its quotient, not scattered — the scatter would spend 32
// multiply-adds per live input and then an epilogue over all 1024 columns, the
// quotient 1024 in all — and equals the CSC engine bit for bit.
func TestStructuredLayersGatherEveryRow(t *testing.T) {
	rad, csc := gcEngines(t, 2)
	var scattered atomic.Int64
	rad.steps[1] = scatterSpy{rad.steps[1], &scattered}
	batch, err := dataset.SparseBatch(3, 1024, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 2} {
		row := batch.RowSlice(r)
		clear(row)
		row[5+100*r] = 16 // one live input: 32 live outputs of layer 0
		mid := make([]float64, 1024)
		if live := csc.kernels[0].FusedGatherRow(mid, row, csc.bias[0], csc.cap); live != 32 {
			t.Fatalf("row %d enters the closing layer with %d live elements, want 32 of 1024", r, live)
		}
	}
	rad.EnableProfiling(1)
	got := mustInfer(t, rad, batch)
	snap, _ := rad.Profile()
	if snap.Layers[1].Quotient != 1 || scattered.Load() != 0 {
		t.Errorf("closing layer: %d quotient batches, %d rows scattered; want 1 and 0", snap.Layers[1].Quotient, scattered.Load())
	}
	sameBits(t, "thin rows through a closing layer", got, mustInfer(t, csc, batch))
}

// stackEngines builds the given numeral systems on the auto family and on the
// CSC oracle.
func stackEngines(t *testing.T, systems ...[]int) (rad, csc *Engine) {
	t.Helper()
	return configEngine(t, KernelAuto, nil, systems...), configEngine(t, KernelCSC, nil, systems...)
}

// step is what a layer declares for a call: its classes (0 on a per-column
// step) and how much of a row it reads and writes (declared reports the whole
// row as 0).
type step struct{ classes, in, out int }

// declared reads every layer's step off the engine.
func declared(e *Engine) []step {
	steps := make([]step, len(e.steps))
	for l, k := range e.steps {
		n := k.needs()
		steps[l] = step{0, n.in % e.layers[l].Rows(), n.out % e.layers[l].Cols()}
		if q, ok := k.(quotientLayer); ok {
			steps[l].classes = q.q.Cols()
		}
	}
	return steps
}

// classes reads every layer's output classes off the engine: one per column
// where the layer runs per column.
func classes(e *Engine) []int {
	n := make([]int, len(e.steps))
	for l, s := range declared(e) {
		n[l] = s.classes
		if n[l] == 0 {
			n[l] = e.layers[l].Cols()
		}
	}
	return n
}

// ranQuotients reads off a one-batch profile which layers ran as quotients.
func ranQuotients(t *testing.T, snap ProfileSnapshot) []bool {
	t.Helper()
	ran := make([]bool, len(snap.Layers))
	for l, lp := range snap.Layers {
		if lp.Batches != 1 || lp.Quotient > 1 {
			t.Fatalf("layer %d: %d batches, %d quotient", l, lp.Batches, lp.Quotient)
		}
		ran[l] = lp.Quotient == 1
	}
	return ran
}

// TestQuotientClassCounts pins what the numbering finds on the real patterns:
// Graph Challenge 1024 has 32 classes from the first closing layer on; the
// opening layer behind (8,8,8)'s closing one reads a row of period 64 and
// leaves 71 classes, which the middle digit keeps; (8,2) twice — a head as
// long as the row — is 8 classes from layer 1 on; and under a Kronecker lift
// by 2, where a layer's two output blocks are one block, (8,8) twice is 8
// classes of 128 columns from layer 1 on. A quotient layer runs on each, and
// each stack equals the CSC engine bit for bit on 13 rows (an octet, a quad, a
// single), one of them holding MaxFloat64.
func TestQuotientClassCounts(t *testing.T) {
	for _, c := range []struct {
		name string
		rad  *Engine
		csc  *Engine
		want []int
	}{
		{"gc1024x6", configEngine(t, KernelAuto, nil, repeat([]int{32, 32}, 3)...), configEngine(t, KernelCSC, nil, repeat([]int{32, 32}, 3)...),
			[]int{1024, 32, 32, 32, 32, 32}},
		{"(8,8,8)²", configEngine(t, KernelAuto, nil, []int{8, 8, 8}, []int{8, 8, 8}), configEngine(t, KernelCSC, nil, []int{8, 8, 8}, []int{8, 8, 8}),
			[]int{512, 512, 64, 71, 71, 64}},
		{"(8,2)²", configEngine(t, KernelAuto, nil, []int{8, 2}, []int{8, 2}), configEngine(t, KernelCSC, nil, []int{8, 2}, []int{8, 2}),
			[]int{16, 8, 8, 8}},
		{"(8,8)² lifted by 2", configEngine(t, KernelAuto, []int{2, 2, 2, 2, 2}, []int{8, 8}, []int{8, 8}), configEngine(t, KernelCSC, []int{2, 2, 2, 2, 2}, []int{8, 8}, []int{8, 8}),
			[]int{128, 8, 8, 8}},
	} {
		if got := classes(c.rad); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s numbers %v classes, want %v", c.name, got, c.want)
		}
		quotients := 0
		for l, n := range c.want {
			if n < c.rad.layers[l].Cols() {
				quotients++
			}
		}
		if c.rad.QuotientLayers() != quotients || c.csc.QuotientLayers() != 0 {
			t.Errorf("%s: %d quotient layers (CSC %d), want %d (0)", c.name, c.rad.QuotientLayers(), c.csc.QuotientLayers(), quotients)
		}
		width := c.rad.layers[0].Rows()
		batch, err := dataset.SparseBatch(13, width, width-width/8, 7)
		if err != nil {
			t.Fatal(err)
		}
		batch.RowSlice(2)[1] = math.MaxFloat64
		sameBits(t, c.name, inferProfiled(t, c.rad, batch), mustInfer(t, c.csc, batch))
	}
}

// TestGCNumberingPasses: Graph Challenge 1024×120 repeats one system sixty
// times, so its numbering reaches a fixed point after the first closing layer
// and building it runs at most four numbering passes — all of them on the
// first three layers past the first.
func TestGCNumberingPasses(t *testing.T) {
	rad, _ := gcEngines(t, 120)
	n := rad.number()
	t.Logf("numbering 1024×120: %d passes", n)
	if n > 4 {
		t.Errorf("numbering 1024×120 ran %d passes, want at most 4", n)
	}
	if rad.QuotientLayers() != 119 {
		t.Errorf("%d quotient layers, want 119", rad.QuotientLayers())
	}
}

// TestPeriodicHandoffs pins what each layer runs and hands on, shape by shape:
// the classes a quotient layer gathers and the class vectors between them, whole
// rows where a per-column step or the caller reads — and that whatever is
// selected equals the CSC engine bit for bit on 13 rows (an octet, a quad, a
// single), one of them holding MaxFloat64.
func TestPeriodicHandoffs(t *testing.T) {
	for _, c := range []struct {
		systems [][]int
		want    []step
	}{
		// Graph Challenge: a closing layer reads layer 0's whole row; from it on,
		// 32 classes.
		{[][]int{{32, 32}, {32, 32}, {32, 32}}, []step{{0, 0, 0}, {32, 0, 32}, {32, 32, 32}, {32, 32, 32}, {32, 32, 32}, {32, 32, 0}}},
		// Three digits: the first system's middle digit runs per column; the
		// second's keeps the 71 classes behind the closing layer.
		{[][]int{{8, 8, 8}, {8, 8, 8}}, []step{{0, 0, 0}, {0, 0, 0}, {64, 0, 64}, {71, 64, 71}, {71, 71, 71}, {64, 71, 0}}},
		// Period 16 = four radices: the wrapped columns are classes of their own.
		{[][]int{{16, 4}, {4, 16}}, []step{{0, 0, 0}, {16, 0, 16}, {19, 16, 19}, {4, 19, 0}}},
		// Period 4 under a radix of 8: classes need no packing, and the closing
		// layer's residue classes mod 8 read the period twice over.
		{[][]int{{4, 8}, {8, 4}}, []step{{0, 0, 0}, {4, 0, 4}, {4, 4, 4}, {4, 4, 0}}},
		// A head as long as the row made no difference to classes.
		{[][]int{{8, 2}, {8, 2}}, []step{{0, 0, 0}, {8, 0, 8}, {8, 8, 8}, {8, 8, 0}}},
		// Two classes.
		{[][]int{{2, 32}, {2, 32}}, []step{{0, 0, 0}, {2, 0, 2}, {2, 2, 2}, {2, 2, 0}}},
		// One system, and one-digit systems: the second one-digit layer is one class.
		{[][]int{{8, 8}}, []step{{0, 0, 0}, {8, 0, 0}}},
		{[][]int{{64}, {64}}, []step{{0, 0, 0}, {1, 0, 0}}},
	} {
		rad, csc := stackEngines(t, c.systems...)
		name := fmt.Sprint(c.systems)
		if got := declared(rad); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s declares %v, want %v", name, got, c.want)
		}
		width := rad.layers[0].Rows()
		batch, err := dataset.SparseBatch(13, width, width-width/8, 7)
		if err != nil {
			t.Fatal(err)
		}
		batch.RowSlice(2)[1] = math.MaxFloat64
		sameBits(t, name, inferProfiled(t, rad, batch), mustInfer(t, csc, batch))
	}
}

// TestPeriodicFollowsWeights (run it under -race): doubling one edge of a
// closing layer — written through a clone's matrices, picked up by
// RefreshWeights, seen by every clone — gives that layer one class more and
// the opening layer behind it the classes that follow from it, 64; the next
// closing layer, complete within each residue class whatever its rows carry,
// is back at 32, and so is the rest of the stack. Writing the value back
// numbers it all as before. Two clones infer
// concurrently before, between and after; everything equals the CSC engine
// and ReferenceInfer bit for bit.
func TestPeriodicFollowsWeights(t *testing.T) {
	rad, csc := gcEngines(t, 6)
	a, b := rad.Clone(), rad.Clone()
	batch, err := dataset.SparseBatch(13, 1024, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch.RowSlice(3)[17] = math.MaxFloat64 // one extreme element among ordinary ones
	const layer, edge = 1, 4097
	w := rad.layers[layer].Values()[edge]
	whole := []step{{0, 0, 0}, {32, 0, 32}, {32, 32, 32}, {32, 32, 32}, {32, 32, 32}, {32, 32, 0}}
	for _, c := range []struct {
		what string
		v    float64
		want []step
	}{
		{"one weight", w, whole},
		{"one edge of layer 1 doubled", 2 * w, []step{{0, 0, 0}, {33, 0, 33}, {64, 33, 64}, {32, 64, 32}, {32, 32, 32}, {32, 32, 0}}},
		{"restored", w, whole},
	} {
		a.layers[layer].Values()[edge] = c.v
		csc.layers[layer].Values()[edge] = c.v
		a.RefreshWeights()
		csc.RefreshWeights()
		if got := declared(b); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: the clone that did not write declares %v, want %v", c.what, got, c.want)
		}
		want := mustInfer(t, csc, batch)
		ref, err := b.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, c.what+": reference", ref, want)
		var wg sync.WaitGroup
		for name, e := range map[string]*Engine{"clone a": a, "clone b": b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := e.Infer(batch)
				if err != nil {
					t.Error(name, err)
					return
				}
				sameBits(t, c.what+": "+name, out, want)
			}()
		}
		wg.Wait()
		sameBits(t, c.what+": profiled", inferProfiled(t, b, batch), want)
	}
}

// TestPeriodicRevivedRows: rows that died under the first layers' biases are
// filled by the positive bias of a quotient layer that hands its live rows on
// as class vectors, and again two layers on — a constant row is the same in
// every class — and leave the stack expanded like the live ones. Rows that
// enter all zero come back at layer 2 as well.
func TestPeriodicRevivedRows(t *testing.T) {
	rad, csc := gcEngines(t, 6)
	for _, e := range []*Engine{rad, csc} {
		copy(e.bias, []float64{-0.3, -0.3, 0.2, 0, 0.2, -0.1})
	}
	batch, err := dataset.SparseBatch(13, 1024, 1000, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 6, 12} {
		for c, v := range batch.RowSlice(r) {
			batch.RowSlice(r)[c] = v * 1e-3 // dies at layer 0
		}
	}
	clear(batch.RowSlice(4))
	first, err := sparse.NewDense(13, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 13; r++ {
		if n := csc.kernels[0].FusedGatherRow(first.RowSlice(r), batch.RowSlice(r), -0.3, 32); (n == 0) != (r == 1 || r == 4 || r == 6 || r == 12) {
			t.Fatalf("row %d leaves layer 0 with %d live elements", r, n)
		}
	}
	if got := declared(rad); got[2] != (step{32, 32, 32}) || got[4] != (step{32, 32, 32}) {
		t.Fatalf("layers 2 and 4 declare %v and %v", got[2], got[4])
	}
	want := mustInfer(t, csc, batch)
	sameBits(t, "revived rows", mustInfer(t, rad, batch), want)
	ref, err := rad.ReferenceInfer(batch)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "revived rows: reference", ref, want)
	if live := want.RowSlice(4)[0]; live <= 0 {
		t.Errorf("the all-zero row ends at %v: nothing was revived", live)
	}
}
