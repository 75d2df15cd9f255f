package infer

import "github.com/radix-net/radixnet/internal/sparse"

// layerKernel is one weight layer bound to the kernel family its engine was
// built with. The family is resolved once, at construction; Engine.layerStep
// owns the gather-vs-scatter choice and the row blocking and reaches the
// arithmetic only through this interface. Every implementation accumulates
// in the same order, so all families agree bit for bit.
type layerKernel interface {
	// needs is asked once per step: form, in and out follow the weights.
	needs() layerNeeds
	// scatter runs one mostly-zero row. nz and scratch are what needs asked
	// for (nil / empty when it asked for nothing).
	scatter(out, in []float64, nz []int32, scratch []float64, bias, clip float64) int
	// gather runs the first n rows of the block — n is needs().block, 4 or 1
	// — in the step's form and returns their activation counts. The block
	// travels by value: a pointer to a step-local array passed through an
	// interface would move the array to the heap on every step.
	gather(rows rowBlock, n int, form gatherForm, bias, clip float64) [8]int
}

// layerNeeds is what a layer declares to the engine that runs it.
type layerNeeds struct {
	block   int  // widest gather block, 8 or 4 rows; also the pool grain
	scratch int  // float64s of scratch a row's scatter accumulates in
	nz      bool // scatter reads the staged nonzero positions of its input
	form    gatherForm
	in, out int // leading entries of a row the gather reads and writes
}

// gatherForm is what a layer's gathers compute on a step, and what the
// profiler reports having run.
type gatherForm uint8

const (
	perColumn    gatherForm = iota // one chain per output column; mostly-zero rows scatter
	classSums                      // sparse.FusedGatherClosed: one chain per residue class
	periodicRows                   // sparse.FusedGatherPeriodic: one chain per column of a period
)

// everyRow reports whether the form gathers even mostly-zero rows: it spends
// about N′ multiply-adds whatever the row holds, which a scatter's epilogue
// alone costs, and may be handed a row too short to scatter from.
func (f gatherForm) everyRow() bool { return f == classSums || f == periodicRows }

// rowBlock is up to eight batch rows' input and output slices.
type rowBlock struct{ in, out [8][]float64 }

// cscLayer is the generic pair — CSC gather, CSR scatter — correct for any
// pattern. A gather loads a row index per stored entry, so widening its
// block past four leaves the index traffic in place: quads are its widest.
type cscLayer struct {
	kern *sparse.Kernel
	mat  *sparse.Matrix
}

func (l cscLayer) needs() layerNeeds {
	return layerNeeds{block: 4, in: l.mat.Rows(), out: l.mat.Cols()}
}

func (l cscLayer) scatter(out, in []float64, _ []int32, _ []float64, bias, clip float64) int {
	return l.mat.FusedScatterRow(out, in, bias, clip)
}

//radix:hotpath
func (l cscLayer) gather(r rowBlock, n int, _ gatherForm, bias, clip float64) (nnz [8]int) {
	if n == 4 {
		l.kern.FusedGatherRow4(r.out[0], r.out[1], r.out[2], r.out[3],
			r.in[0], r.in[1], r.in[2], r.in[3], bias, clip, (*[4]int)(nnz[:4]))
		return nnz
	}
	nnz[0] = l.kern.FusedGatherRow(r.out[0], r.in[0], bias, clip)
	return nnz
}

// radixLayer is the structure-aware butterfly kernel in natural order.
// Arithmetic addressing removes the per-entry index load, so it blocks eight
// rows per weight load.
type radixLayer struct{ rk *sparse.RadixKernel }

func (l radixLayer) needs() layerNeeds {
	return layerNeeds{block: 8, in: l.rk.Rows(), out: l.rk.Cols()}
}

func (l radixLayer) scatter(out, in []float64, _ []int32, _ []float64, bias, clip float64) int {
	return l.rk.FusedScatterRow(out, in, bias, clip)
}

//radix:hotpath
func (l radixLayer) gather(r rowBlock, n int, _ gatherForm, bias, clip float64) (nnz [8]int) {
	switch n {
	case 8:
		l.rk.FusedGatherRow8(&r.out, &r.in, bias, clip, &nnz)
	case 4:
		l.rk.FusedGatherRow4(r.out[0], r.out[1], r.out[2], r.out[3],
			r.in[0], r.in[1], r.in[2], r.in[3], bias, clip, (*[4]int)(nnz[:4]))
	default:
		nnz[0] = l.rk.FusedGatherRow(r.out[0], r.in[0], bias, clip)
	}
	return nnz
}

// stockhamLayer is radixLayer with activations in the packed Stockham
// layout. The gathers are the same entry points (the kernel knows its
// layout) and the scatter accumulates in private scratch, walking on the
// stack's first layer the nonzero positions the staging scan recorded — except
// where one weight makes columns share their chains: a numeral system's closing
// layer (sparse.FusedGatherClosed) and the opening layer behind one
// (sparse.FusedGatherPeriodic), which also pass each other only the distinct
// part of a row. All of it is read from the kernels on every step:
// RefreshWeights through any clone puts a written layer back on the per-column
// forms, and its neighbours on whole rows, at once.
type stockhamLayer struct {
	radixLayer
	prev, next *stockhamLayer // neighbours in the stack, nil at its ends
}

// period returns the period of the layer's input rows if on this step its
// gathers are periodic, else 0: an opening layer that is not also closing,
// holding one weight, behind a closed layer whose place value its radix divides
// (columns a period apart then share a block of the packed output).
func (l *stockhamLayer) period() int {
	p := l.rk.Plan()
	if l.prev == nil || p.PlaceValue() != 1 || p.Radix() == p.NPrime() || !l.rk.OneWeight() || !l.prev.rk.Closed() {
		return 0
	}
	if pv := l.prev.rk.Plan().PlaceValue(); pv%p.Radix() == 0 {
		return pv
	}
	return 0
}

// handoff returns how many leading entries of a row layer a writes for the
// next layer b on this step, 0 for all of it: the period + radix − 1 a periodic
// b reads of a closed a, or the natural-order head of period + radix a periodic
// a leaves a closed b — when that is shorter than the row, whose length would
// not tell the two layouts apart.
func handoff(a, b *stockhamLayer) int {
	if a == nil || b == nil {
		return 0
	}
	if period := b.period(); period > 0 {
		return period + b.rk.Plan().Radix() - 1
	}
	if period := a.period(); period > 0 && b.rk.Closed() && period+a.rk.Plan().Radix() < a.rk.Cols() {
		return period + a.rk.Plan().Radix()
	}
	return 0
}

func (l *stockhamLayer) needs() layerNeeds {
	n := layerNeeds{block: 8, scratch: l.rk.Cols(), nz: l.prev == nil, in: l.rk.Rows(), out: l.rk.Cols()}
	if l.rk.Closed() {
		n.form = classSums
	} else if l.period() > 0 {
		n.form = periodicRows
	}
	if h := handoff(l.prev, l); h > 0 {
		n.in = h
	}
	if h := handoff(l, l.next); h > 0 {
		n.out = h
	}
	return n
}

func (l *stockhamLayer) scatter(out, in []float64, nz []int32, scratch []float64, bias, clip float64) int {
	return l.rk.FusedScatterRowStockham(out, in, nz, scratch, bias, clip)
}

// gather runs the step's form. Neither structured form has a weight stream for
// a block to share, so they serve every block width a row at a time.
//
//radix:hotpath
func (l *stockhamLayer) gather(r rowBlock, n int, form gatherForm, bias, clip float64) (nnz [8]int) {
	switch form {
	case classSums:
		for j := 0; j < n; j++ {
			nnz[j] = l.rk.FusedGatherClosed(r.out[j], r.in[j], bias, clip)
		}
	case periodicRows:
		for j := 0; j < n; j++ {
			nnz[j] = l.rk.FusedGatherPeriodic(r.out[j], r.in[j], bias, clip)
		}
	default:
		return l.radixLayer.gather(r, n, form, bias, clip)
	}
	return nnz
}
