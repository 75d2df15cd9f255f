package infer

import "github.com/radix-net/radixnet/internal/sparse"

// layerKernel is one weight layer bound to the kernel family its engine was
// built with. The family is resolved once, at construction; Engine.layerStep
// owns the gather-vs-scatter choice and the row blocking and reaches the
// arithmetic only through this interface. Every implementation accumulates
// in the same order, so all families agree bit for bit.
type layerKernel interface {
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

// layerNeeds is what a layer declares to the engine that runs it.
type layerNeeds struct {
	block   int  // widest gather block, 8 or 4 rows; also the pool grain
	scratch int  // float64s of private scatter scratch per batch row
	nz      bool // scatter reads the staged nonzero positions of its input
}

// rowBlock is up to eight batch rows' input and output slices.
type rowBlock struct{ in, out [8][]float64 }

// cscLayer is the generic pair — CSC gather, CSR scatter — correct for any
// pattern. A gather loads a row index per stored entry, so widening its
// block past four leaves the index traffic in place: quads are its widest.
type cscLayer struct {
	kern *sparse.Kernel
	mat  *sparse.Matrix
}

func (cscLayer) needs() layerNeeds { return layerNeeds{block: 4} }

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

func (radixLayer) needs() layerNeeds { return layerNeeds{block: 8} }

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
// layout) except on a numeral system's closing layer while it holds one
// weight, whose rows each sum every residue class once; the scatter
// accumulates in private scratch and, on the stack's first layer, walks the
// nonzero positions the staging scan recorded.
type stockhamLayer struct {
	radixLayer
	first bool
}

func (l stockhamLayer) needs() layerNeeds {
	return layerNeeds{block: 8, scratch: l.rk.Cols(), nz: l.first}
}

func (l stockhamLayer) scatter(out, in []float64, nz []int32, scratch []float64, bias, clip float64) int {
	return l.rk.FusedScatterRowStockham(out, in, nz, scratch, bias, clip)
}

// gather reads Closed on every call: RefreshWeights through any clone can
// change it, and a written closing layer is back on the per-column forms at
// once. The class sum is the weighted chain, exact on every input, and has no
// weight stream for a block to share — so it serves every block width a row at
// a time.
//
//radix:hotpath
func (l stockhamLayer) gather(r rowBlock, n int, bias, clip float64) (nnz [8]int) {
	if !l.rk.Closed() {
		return l.radixLayer.gather(r, n, bias, clip)
	}
	for j := 0; j < n; j++ {
		nnz[j] = l.rk.FusedGatherClosed(r.out[j], r.in[j], bias, clip)
	}
	return nnz
}

// uniformLayer is stockhamLayer on a layer whose weights are all one positive
// power of two, for a batch whose inputs fit Engine.exactWindow: a full octet
// of a layer that is not closed sums its in-edges unweighted and scales once
// per output. Closed layers, quads, single rows and the scatter stay on the
// weighted forms, which the window makes bit-identical — so the two mix freely
// inside one batch.
type uniformLayer struct{ stockhamLayer }

//radix:hotpath
func (l uniformLayer) gather(r rowBlock, n int, bias, clip float64) (nnz [8]int) {
	if n == 8 && !l.rk.Closed() {
		l.rk.FusedGatherRow8Uniform(&r.out, &r.in, bias, clip, &nnz)
		return nnz
	}
	return l.stockhamLayer.gather(r, n, bias, clip)
}
