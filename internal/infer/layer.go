package infer

import "github.com/radix-net/radixnet/internal/sparse"

// layerKernel is one weight layer bound to the kernel family its engine was
// built with. The family is resolved once, at construction; Engine.layerStep
// owns the gather-vs-scatter choice and the row blocking and reaches the
// arithmetic only through this interface. Every implementation accumulates
// in the same order, so all families agree bit for bit.
type layerKernel interface {
	// needs is asked once per step: what it answers may follow the weights,
	// and says how much of each row gather and scatter are handed.
	needs() layerNeeds
	// scatter runs one mostly-zero row. nz and scratch are what needs asked
	// for (nil / empty when it asked for nothing).
	scatter(out, in []float64, nz []int32, scratch []float64, bias, clip float64) int
	// gather runs the first n rows of the block — n is needs().block, 4 or 1
	// — and returns their activation counts. The block travels by value: a
	// pointer to a step-local array passed through an interface would move
	// the array to the heap on every step.
	gather(rows rowBlock, n int, bias, clip float64) [8]int
}

// layerNeeds is what a layer declares to the engine that runs it. form, in and
// out follow the weights, so the engine asks again on every step.
type layerNeeds struct {
	block   int  // widest gather block, 8 or 4 rows; also the pool grain
	scratch int  // float64s of private scatter scratch per batch row
	nz      bool // scatter reads the staged nonzero positions of its input
	form    gatherForm
	in, out int // leading entries of a row the gather reads and writes
}

// gatherForm is what a layer's gathers compute on a step, and what the
// profiler reports having run.
type gatherForm uint8

const (
	perColumn     gatherForm = iota // one chain per output column; mostly-zero rows scatter
	uniformOctets                   // perColumn, full octets on sparse.FusedGatherRow8Uniform
	classSums                       // sparse.FusedGatherClosed: one chain per residue class
	periodicRows                    // sparse.FusedGatherPeriodic: one chain per column of a period
)

// everyRow reports whether the form gathers even mostly-zero rows: it spends
// N′ multiply-adds or so whatever the row holds, which a scatter's epilogue
// alone costs, and may be handed a row too short to scatter from.
func (f gatherForm) everyRow() bool { return f >= classSums }

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
func (l cscLayer) gather(r rowBlock, n int, bias, clip float64) (nnz [8]int) {
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
func (l radixLayer) gather(r rowBlock, n int, bias, clip float64) (nnz [8]int) {
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
// where one weight makes columns share their chains. A numeral system's closing
// layer then sums every residue class once and leaves a row that repeats with
// its place value; the opening layer of the next system, if its radix divides
// that period and it holds one weight too, gathers one period of columns. Such
// neighbours carry only what is distinct between them: the closing layer
// writes the leading entries the periodic gather reads, and a periodic gather
// followed at once by its system's closing layer writes the natural-order head
// that layer walks (sparse.FusedGatherClosed, FusedGatherPeriodic). All of it
// is read from the kernels on every call: RefreshWeights through any clone can
// change it, and a written layer is back on the per-column forms, and its
// neighbours on whole rows, at once.
type stockhamLayer struct {
	radixLayer
	prev, next *stockhamLayer // neighbours in the stack, nil at its ends
}

// period returns the period of the layer's input rows if on this call its
// gathers are periodic, else 0: an opening layer that is not also closing,
// holding one weight, behind a closed layer whose place value its radix divides
// (columns a period apart then share a block of the packed output).
func (l stockhamLayer) period() int {
	p := l.rk.Plan()
	if l.prev == nil || p.PlaceValue() != 1 || p.Radix() == p.NPrime() || !l.rk.OneWeight() || !l.prev.rk.Closed() {
		return 0
	}
	if pv := l.prev.rk.Plan().PlaceValue(); pv%p.Radix() == 0 {
		return pv
	}
	return 0
}

// head returns the length of the natural-order head the layer hands the next
// one on this call, else 0: periodic here, closed there, and the head shorter
// than the row — the lengths could not tell the two layouts apart otherwise.
func (l stockhamLayer) head() int {
	period, radix := l.period(), l.rk.Plan().Radix()
	if period == 0 || period+radix >= l.rk.Cols() || l.next == nil || !l.next.rk.Closed() {
		return 0
	}
	return period + radix
}

func (l stockhamLayer) needs() layerNeeds {
	n := layerNeeds{block: 8, scratch: l.rk.Cols(), nz: l.prev == nil, in: l.rk.Rows(), out: l.rk.Cols()}
	if l.rk.Closed() {
		n.form = classSums
		if l.prev != nil {
			if h := l.prev.head(); h > 0 {
				n.in = h
			}
		}
		if l.next != nil {
			if period := l.next.period(); period > 0 {
				n.out = period + l.next.rk.Plan().Radix() - 1
			}
		}
	} else if period := l.period(); period > 0 {
		n.form, n.in = periodicRows, period+l.rk.Plan().Radix()-1
		if h := l.head(); h > 0 {
			n.out = h
		}
	}
	return n
}

func (l stockhamLayer) scatter(out, in []float64, nz []int32, scratch []float64, bias, clip float64) int {
	return l.rk.FusedScatterRowStockham(out, in, nz, scratch, bias, clip)
}

// gather runs the form needs declared for this step, which the rows show: only
// a periodic gather is handed a short row on a layer that is not closed.
// Neither structured form has a weight stream for a block to share, so they
// serve every block width a row at a time.
//
//radix:hotpath
func (l stockhamLayer) gather(r rowBlock, n int, bias, clip float64) (nnz [8]int) {
	closed := l.rk.Closed()
	if !closed && len(r.in[0]) == l.rk.Rows() {
		return l.radixLayer.gather(r, n, bias, clip)
	}
	for j := 0; j < n; j++ {
		if closed {
			nnz[j] = l.rk.FusedGatherClosed(r.out[j], r.in[j], bias, clip)
		} else {
			nnz[j] = l.rk.FusedGatherPeriodic(r.out[j], r.in[j], bias, clip)
		}
	}
	return nnz
}

// uniformLayer is stockhamLayer on a per-column step of a layer whose weights
// are all one positive power of two, for a batch whose inputs fit
// Engine.exactWindow: a full octet sums its in-edges unweighted and scales once
// per output. Quads, single rows and the scatter stay on the weighted forms,
// which the window makes bit-identical — so the two mix freely inside one
// batch.
type uniformLayer struct{ *stockhamLayer }

//radix:hotpath
func (l uniformLayer) gather(r rowBlock, n int, bias, clip float64) (nnz [8]int) {
	if n == 8 {
		l.rk.FusedGatherRow8Uniform(&r.out, &r.in, bias, clip, &nnz)
		return nnz
	}
	return l.stockhamLayer.gather(r, n, bias, clip)
}
