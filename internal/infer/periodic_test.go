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

func (s scatterSpy) scatter(out, in []float64, nz []int32, scratch []float64, bias, clip float64) int {
	s.rows.Add(1)
	return s.layerKernel.scatter(out, in, nz, scratch, bias, clip)
}

// TestStructuredLayersGatherEveryRow: a row 3 % live entering a closing layer
// is summed by classes, not scattered — the scatter would spend 32 multiply-adds
// per live input and then an epilogue over all 1024 columns, the class sums 1024
// in all — and equals the CSC engine bit for bit.
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
	if snap.Layers[1].ClassSum != 1 || scattered.Load() != 0 {
		t.Errorf("closing layer: %d class-sum batches, %d rows scattered; want 1 and 0", snap.Layers[1].ClassSum, scattered.Load())
	}
	sameBits(t, "thin rows through a closing layer", got, mustInfer(t, csc, batch))
}

// stackEngines builds the given numeral systems on the auto family and on the
// CSC oracle.
func stackEngines(t *testing.T, systems ...[]int) (rad, csc *Engine) {
	t.Helper()
	return configEngine(t, KernelAuto, nil, systems...), configEngine(t, KernelCSC, nil, systems...)
}

// step is what a layer declares for a call: its form and how much of a row it
// reads and writes (declared reports the whole row as 0).
type step struct {
	form    gatherForm
	in, out int
}

// declared reads every layer's step off the engine.
func declared(e *Engine) []step {
	steps := make([]step, len(e.steps))
	for l, k := range e.steps {
		n := k.needs()
		steps[l] = step{n.form, n.in % e.layers[l].Rows(), n.out % e.layers[l].Cols()}
	}
	return steps
}

// ranForms reads the form each layer ran from a one-batch profile.
func ranForms(t *testing.T, snap ProfileSnapshot) []gatherForm {
	t.Helper()
	forms := make([]gatherForm, len(snap.Layers))
	for l, lp := range snap.Layers {
		switch {
		case lp.Batches != 1 || lp.ClassSum+lp.Periodic > 1:
			t.Fatalf("layer %d: %d batches, %d class-sum, %d periodic", l, lp.Batches, lp.ClassSum, lp.Periodic)
		case lp.ClassSum == 1:
			forms[l] = classSums
		case lp.Periodic == 1:
			forms[l] = periodicRows
		}
	}
	return forms
}

// TestPeriodicHandoffs pins the selection shape by shape: which layers sum
// classes, which gather periodically, and what each pair hands over — and that
// whatever is selected equals the CSC engine bit for bit on 13 rows (an octet, a
// quad, a single), one of them holding MaxFloat64.
func TestPeriodicHandoffs(t *testing.T) {
	col, cls, per := perColumn, classSums, periodicRows
	for _, c := range []struct {
		systems [][]int
		want    []step
	}{
		// Graph Challenge: every opening layer past the first follows a closing
		// layer of place value 32 = its radix; 63 entries in, a 64-entry head out.
		{[][]int{{32, 32}, {32, 32}, {32, 32}}, []step{{col, 0, 0}, {cls, 0, 63}, {per, 63, 64}, {cls, 64, 63}, {per, 63, 64}, {cls, 64, 0}}},
		// Three digits: the periodic layer feeds a middle digit, which needs the row.
		{[][]int{{8, 8, 8}, {8, 8, 8}}, []step{{col, 0, 0}, {col, 0, 0}, {cls, 0, 71}, {per, 71, 0}, {col, 0, 0}, {cls, 0, 0}}},
		// Period 16 = four radices; head of 20.
		{[][]int{{16, 4}, {4, 16}}, []step{{col, 0, 0}, {cls, 0, 19}, {per, 19, 20}, {cls, 20, 0}}},
		// Period 4 under a radix of 8: columns a period apart change block.
		{[][]int{{4, 8}, {8, 4}}, []step{{col, 0, 0}, {cls, 0, 0}, {col, 0, 0}, {cls, 0, 0}}},
		// The head would be the whole row: lengths could not tell it from the packed one.
		{[][]int{{8, 2}, {8, 2}}, []step{{col, 0, 0}, {cls, 0, 15}, {per, 15, 0}, {cls, 0, 0}}},
		// Two classes: every chain runs on the scalar lanes.
		{[][]int{{2, 32}, {2, 32}}, []step{{col, 0, 0}, {cls, 0, 3}, {per, 3, 4}, {cls, 4, 0}}},
		// One system, and one-digit systems: nothing follows a closing layer it divides.
		{[][]int{{8, 8}}, []step{{col, 0, 0}, {cls, 0, 0}}},
		{[][]int{{64}, {64}}, []step{{cls, 0, 0}, {cls, 0, 0}}},
	} {
		rad, csc := stackEngines(t, c.systems...)
		name := fmt.Sprint(c.systems)
		if got := declared(rad); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s declares %v, want %v", name, got, c.want)
		}
		periodic := 0
		for _, s := range c.want {
			if s.form == per {
				periodic++
			}
		}
		if rad.PeriodicLayers() != periodic || csc.PeriodicLayers() != 0 {
			t.Errorf("%s: %d periodic layers (CSC %d), want %d (0)", name, rad.PeriodicLayers(), csc.PeriodicLayers(), periodic)
		}
		width := rad.layers[0].Rows()
		batch, err := dataset.SparseBatch(13, width, width-width/8, 7)
		if err != nil {
			t.Fatal(err)
		}
		batch.RowSlice(2)[1] = math.MaxFloat64
		rad.EnableProfiling(1)
		got := mustInfer(t, rad, batch)
		snap, _ := rad.Profile()
		for l, f := range ranForms(t, snap) {
			if f != c.want[l].form {
				t.Errorf("%s layer %d ran form %d, want %d", name, l, f, c.want[l].form)
			}
		}
		sameBits(t, name, got, mustInfer(t, csc, batch))
	}
}

// TestPeriodicFollowsWeights (run it under -race): doubling one edge of a
// closing layer — written through a clone's matrices, picked up by
// RefreshWeights, seen by every clone — takes that layer off the class sums AND
// the opening layer behind it off the periodic gather, and both hand-offs next
// to them go back to whole rows; the systems further on are untouched. Writing
// the value back restores all of it. Two clones infer concurrently before,
// between and after; everything equals the CSC engine and ReferenceInfer bit
// for bit.
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
	col, cls, per := perColumn, classSums, periodicRows
	whole := []step{{col, 0, 0}, {cls, 0, 63}, {per, 63, 64}, {cls, 64, 63}, {per, 63, 64}, {cls, 64, 0}}
	for _, c := range []struct {
		what string
		v    float64
		want []step
	}{
		{"one weight", w, whole},
		{"one edge of layer 1 doubled", 2 * w, []step{{col, 0, 0}, {col, 0, 0}, {col, 0, 0}, {cls, 0, 63}, {per, 63, 64}, {cls, 64, 0}}},
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
		b.EnableProfiling(1)
		sameBits(t, c.what+": profiled", mustInfer(t, b, batch), want)
		snap, _ := b.Profile()
		b.DisableProfiling()
		for l, f := range ranForms(t, snap) {
			if f != c.want[l].form {
				t.Errorf("%s: layer %d ran form %d, want %d", c.what, l, f, c.want[l].form)
			}
		}
	}
}

// TestPeriodicRevivedRows: rows that died under the first layers' biases are
// filled, full width, by the positive bias of a periodic layer that hands its
// live rows over as heads, and again two layers on where the live rows arrive
// as 63 leading entries — a constant row reads the same through either
// hand-off. Rows that enter all zero come back at layer 2 as well.
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
	if got := declared(rad); got[2] != (step{periodicRows, 63, 64}) || got[4] != (step{periodicRows, 63, 64}) {
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
