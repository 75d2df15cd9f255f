package infer

import (
	"encoding/binary"

	"github.com/radix-net/radixnet/internal/sparse"
)

// layerKernel is one weight layer bound to the kernel family its engine was
// built with, or to the quotient of that layer (quotientLayer). The family is
// resolved once, at construction; Engine.layerStep owns the gather-vs-scatter
// choice and the row blocking and reaches the arithmetic only through this
// interface. Every implementation accumulates in the same order, so all
// families agree bit for bit.
type layerKernel interface {
	// needs is asked once per step: RefreshWeights may rebind the layer.
	needs() layerNeeds
	// scatter runs one mostly-zero row.
	scatter(out, in []float64, bias, clip float64) int
	// gather runs the first n rows of the block — n is needs().block, 4 or 1
	// — and returns their activation counts; scratch is what needs asked for.
	// The block travels by value: a pointer to a step-local array passed
	// through an interface would move the array to the heap on every step.
	gather(rows rowBlock, n int, scratch []float64, bias, clip float64) [8]int
}

// layerNeeds is what a layer declares to the engine that runs it.
type layerNeeds struct {
	block    int  // widest gather block, 8 or 4 rows; also the pool grain
	scratch  int  // float64s of scratch a row stages in
	quotient bool // a quotientLayer: it gathers every row, into classes
	in, out  int  // leading entries of a row the step reads and writes
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

func (l cscLayer) needs() layerNeeds {
	return layerNeeds{block: 4, in: l.mat.Rows(), out: l.mat.Cols()}
}

func (l cscLayer) scatter(out, in []float64, bias, clip float64) int {
	return l.mat.FusedScatterRow(out, in, bias, clip)
}

//radix:hotpath
func (l cscLayer) gather(r rowBlock, n int, _ []float64, bias, clip float64) (nnz [8]int) {
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

func (l radixLayer) scatter(out, in []float64, bias, clip float64) int {
	return l.rk.FusedScatterRow(out, in, bias, clip)
}

//radix:hotpath
func (l radixLayer) gather(r rowBlock, n int, _ []float64, bias, clip float64) (nnz [8]int) {
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

// quotientLayer runs a layer whose columns fall into fewer value classes than
// there are columns (sparse.NewQuotient): its rows in and out are class
// vectors — except that a row a per-column step left is read whole, each
// position its own class, and a row the engine returns or a per-column step
// reads next is expanded to the whole row. It has no weight stream worth an
// octet and nothing to scatter: every row gathers, four at a time.
type quotientLayer struct {
	q      *sparse.Kernel
	mult   []int32 // columns per class
	expand []int32 // the class at each position of the row written, nil to write classes
}

func (l quotientLayer) needs() layerNeeds {
	n := layerNeeds{block: 4, quotient: true, in: l.q.Rows(), out: l.q.Cols()}
	if l.expand != nil {
		n.scratch, n.out = l.q.Cols(), len(l.expand)
	}
	return n
}

func (l quotientLayer) scatter([]float64, []float64, float64, float64) int {
	panic("infer: a quotient step gathers every row")
}

// gather returns each row's live count over the whole row: a class counts
// once per column it stands for.
//
//radix:hotpath
func (l quotientLayer) gather(r rowBlock, n int, scratch []float64, bias, clip float64) (nnz [8]int) {
	if n == 4 {
		l.q.FusedGatherRow4(r.out[0], r.out[1], r.out[2], r.out[3],
			r.in[0], r.in[1], r.in[2], r.in[3], bias, clip, (*[4]int)(nnz[:4]))
	} else {
		l.q.FusedGatherRow(r.out[0], r.in[0], bias, clip)
	}
	for j, out := range r.out[:n] {
		cls := out[:len(l.mult)]
		live := 0
		for i, v := range cls {
			if v != 0 { // the epilogue leaves 0 or a live value, NaN included
				live += int(l.mult[i])
			}
		}
		nnz[j] = live
		if l.expand != nil {
			cls = scratch[:copy(scratch, cls)]
			for p, i := range l.expand {
				out[p] = cls[i]
			}
		}
	}
	return nnz
}

// number binds every layer past the first to its quotient where the layer's
// values number it into fewer classes than columns, and to its per-column step
// elsewhere, and returns how many numbering passes it ran. Layer 0 reads the
// caller's rows and stays per column. A per-column step's output is numbered
// as the identity, each column of the row it wrote its own class; a quotient's
// output by its classes. A pass depends only on the layer's storage and its
// input's numbering, interned by content, and runs once per distinct pair: a
// stack that repeats a numeral system repeats its numbering from the first
// closing layer on, so Graph Challenge 1024×120 numbers in three passes.
func (e *Engine) number() (passes int) {
	type key struct {
		storage any
		in      *int32 // the input numbering, interned
	}
	type numbering struct {
		q         *sparse.Kernel
		out, mult []int32
	}
	interned := map[string][]int32{}
	intern := func(v []int32) []int32 {
		b := make([]byte, 0, 4*len(v))
		for _, c := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
		if w, ok := interned[string(b)]; ok {
			return w
		}
		interned[string(b)] = v
		return v
	}
	memo := map[key]*numbering{}
	nums := make([]*numbering, len(e.layers)) // nil where the layer runs per column
	for l := 1; l < len(e.layers); l++ {
		var in []int32
		if nums[l-1] != nil {
			in = nums[l-1].out
		} else {
			in = make([]int32, e.layers[l].Rows())
			for r := range in {
				in[r] = int32(r)
			}
			in = intern(in)
		}
		k := key{e.kernels[l].Storage(), &in[0]}
		n := memo[k]
		if n == nil {
			n = new(numbering)
			n.q, n.out, n.mult = sparse.NewQuotient(e.kernels[l], in)
			n.out = intern(n.out)
			memo[k] = n
		}
		if n.q.Cols() < e.layers[l].Cols() {
			nums[l] = n
		}
	}
	for l, n := range nums {
		if n == nil {
			e.steps[l] = e.cols[l]
			continue
		}
		st := quotientLayer{q: n.q, mult: n.mult}
		if l == len(nums)-1 || nums[l+1] == nil {
			st.expand = n.out
		}
		e.steps[l] = st
	}
	return len(memo)
}
