package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kernel is a CSC (compressed sparse column, i.e. transposed) re-encoding of
// a Matrix, specialized for the batched feedforward product Y·W. Where the
// CSR Matrix computes an output row by *scattering* each input activation
// across its out-edges — cache-hostile random writes into the output — the
// Kernel computes each output element as a *gather*: a dot product over the
// column's in-edges. Every output element is written exactly once, in
// order, which eliminates write contention between row blocks and lets the
// bias + threshold-ReLU + cap epilogue fuse into the same loop.
//
// Indices are int32 (halving index bandwidth versus the Matrix's ints);
// construction rejects matrices too large to index. Within each column the
// in-edge row indices are strictly increasing (a quotient's taps keep its
// source's order instead: NewQuotient), so a gathered dot product
// accumulates contributions in exactly the same order as the CSR scatter —
// the two paths produce bit-identical floating-point results.
type Kernel struct {
	rows, cols int
	colPtr     []int32 // len cols+1; colPtr[c]..colPtr[c+1] indexes rowIdx
	rowIdx     []int32 // len NNZ; input (row) indices, increasing per column
	vals       []float64
	perm       []int32  // CSR storage index -> CSC storage index, for Refresh
	colDeg     int      // uniform column in-degree, or 0 when columns are ragged
	src        *Pattern // the pattern the kernel was built from
	ownVals    bool     // vals is this kernel's reordered copy, not the matrix's constant run
}

// cscStructure is the transposition of a Pattern: everything a Kernel reads
// that does not depend on the weights. Built once per Pattern, immutable, and
// shared by every Kernel on it.
type cscStructure struct {
	colPtr, rowIdx, perm []int32
	colDeg               int
}

// transposed returns the pattern's CSC structure, building it on first use;
// nil when the pattern is too large for int32 indexing.
func (p *Pattern) transposed() *cscStructure {
	p.cscOnce.Do(func() {
		nnz := p.NNZ()
		if int64(p.rows) > math.MaxInt32 || int64(p.cols) > math.MaxInt32 || int64(nnz) > math.MaxInt32 {
			return
		}
		t := &cscStructure{
			colPtr: make([]int32, p.cols+1),
			rowIdx: make([]int32, nnz),
			perm:   make([]int32, nnz),
		}
		for _, c := range p.colIdx {
			t.colPtr[c+1]++
		}
		for c := 0; c < p.cols; c++ {
			t.colPtr[c+1] += t.colPtr[c]
		}
		next := append([]int32(nil), t.colPtr[:p.cols]...)
		for r := 0; r < p.rows; r++ {
			for i := p.rowPtr[r]; i < p.rowPtr[r+1]; i++ {
				c := p.colIdx[i]
				j := next[c]
				next[c]++
				t.rowIdx[j] = int32(r)
				t.perm[i] = j
			}
		}
		// RadiX-Net layers are in-degree regular (every column has the same
		// number of in-edges); detect that so the gather can run its unrolled
		// multi-column fast path.
		deg := int(t.colPtr[1])
		for c := 1; deg > 0 && c < p.cols; c++ {
			if int(t.colPtr[c+1]-t.colPtr[c]) != deg {
				deg = 0
			}
		}
		t.colDeg = deg
		p.csc = t
	})
	return p.csc
}

// NewKernel builds the CSC kernel of m. The index arrays are the pattern's
// (one set however many kernels are built on it). The values are a reordered
// copy the kernel owns — after mutating the matrix's values, call Refresh to
// resync — except while m still reads a constant run (ConstantMatrices), which
// the kernel then reads too: one value in every position is the same stream in
// any order.
func NewKernel(m *Matrix) (*Kernel, error) {
	t := m.pat.transposed()
	if t == nil {
		return nil, fmt.Errorf("sparse: %dx%d matrix with %d entries exceeds int32 kernel indexing", m.pat.rows, m.pat.cols, m.NNZ())
	}
	k := &Kernel{
		rows: m.pat.rows, cols: m.pat.cols,
		colPtr: t.colPtr, rowIdx: t.rowIdx, perm: t.perm, colDeg: t.colDeg,
		src: m.pat,
	}
	return k, k.Refresh(m)
}

// Refresh resyncs the kernel with the matrix's (possibly mutated) values. m
// must be built on the identical Pattern the kernel was constructed from — a
// same-shaped matrix with different structure would silently scramble the
// value permutation, so it is rejected. O(NNZ); it allocates once, the first
// time it finds the matrix off the constant run the kernel was sharing.
func (k *Kernel) Refresh(m *Matrix) error {
	if m.pat != k.src {
		return fmt.Errorf("sparse: refresh with a different pattern than the kernel was built from (%dx%d nnz=%d)",
			m.pat.rows, m.pat.cols, m.NNZ())
	}
	if m.shared {
		k.vals, k.ownVals = m.vals, false
		return nil
	}
	if !k.ownVals {
		k.vals, k.ownVals = make([]float64, len(m.vals)), true
	}
	for i, v := range m.vals {
		k.vals[k.perm[i]] = v
	}
	return nil
}

// Storage returns a comparable key that two kernels share exactly when they
// are built on one pattern and read one value storage, so compute the same
// function — until either is refreshed.
func (k *Kernel) Storage() any {
	type storage struct {
		src  *Pattern
		vals *float64
	}
	s := storage{src: k.src}
	if len(k.vals) > 0 {
		s.vals = &k.vals[0]
	}
	return s
}

// NewQuotient numbers the values k computes on inputs where rows of one class
// hold one value: inClass gives each of k's rows a class in [0, n). A column's
// signature is its ordered list of (input class, weight bits) pairs, read off
// the CSC structure in ascending row order — the order every gather
// accumulates in — so columns with equal signatures compute the same floating-
// point chain on the same operands, hence the same bits, on every such input.
// They get one output class: outClass[c] is column c's, numbered in order of
// first appearance, and mult[j] counts the columns of class j.
//
// q is the quotient: an ordinary kernel of n rows and one column per output
// class, holding the taps of the class's first column in chain order, each
// reading the input class in place of the row. Unlike a kernel built from a
// matrix, a column's taps may therefore repeat or skip back over an input
// class, and q has no pattern to Refresh from: number again after the weights
// change. On the class vector v, FusedGatherRow and FusedGatherRow4 of q write
// to out[outClass[c]] exactly what k's write to column c on the row
// x[r] = v[inClass[r]], and count each live class once.
func NewQuotient(k *Kernel, inClass []int32) (q *Kernel, outClass, mult []int32) {
	inClass = inClass[:k.rows]
	n := int32(0)
	for _, c := range inClass {
		n = max(n, c+1)
	}
	q = &Kernel{rows: int(n), colDeg: k.colDeg, colPtr: []int32{0}}
	outClass = make([]int32, k.cols)
	seen := make(map[string]int32)
	var sig []byte
	for c := range outClass {
		lo, hi := k.colPtr[c], k.colPtr[c+1]
		sig = sig[:0]
		for j := lo; j < hi; j++ {
			sig = binary.LittleEndian.AppendUint32(sig, uint32(inClass[k.rowIdx[j]]))
			sig = binary.LittleEndian.AppendUint64(sig, math.Float64bits(k.vals[j]))
		}
		id, ok := seen[string(sig)]
		if !ok {
			id = int32(len(mult))
			seen[string(sig)] = id
			mult = append(mult, 0)
			for _, r := range k.rowIdx[lo:hi] {
				q.rowIdx = append(q.rowIdx, inClass[r])
			}
			q.vals = append(q.vals, k.vals[lo:hi]...)
			q.colPtr = append(q.colPtr, int32(len(q.rowIdx)))
		}
		outClass[c] = id
		mult[id]++
	}
	q.cols = len(mult)
	return q, outClass, mult
}

// Rows returns the input dimension (rows of the underlying matrix).
func (k *Kernel) Rows() int { return k.rows }

// Cols returns the output dimension (columns of the underlying matrix).
func (k *Kernel) Cols() int { return k.cols }

// NNZ returns the number of stored entries.
func (k *Kernel) NNZ() int { return len(k.vals) }

// FusedGatherRow computes one batch row of the fused feedforward step
//
//	out[c] = min(cap, max(0, Σ_r in[r]·W[r,c] + bias))   (cap ≤ 0: no ceiling)
//
// touching each output element exactly once, and returns the number of
// positive output elements — the row's activation count, which drives both
// active-row tracking (0 means the row is dead) and the per-row
// gather/scatter choice at the next layer. in must have length Rows() and
// out length Cols(); out is fully overwritten. It does not allocate.
//
// The inner loop walks same-length value/index windows resliced per
// column, so the compiler proves w[j]/ri[j] in bounds and the only check
// left per element is the inherent data-dependent gather in[ri[j]] (the
// BCE gate pins exactly that budget).
//
//radix:hotpath
func (k *Kernel) FusedGatherRow(out, in []float64, bias, cap float64) int {
	in = in[:k.rows]
	out = out[:k.cols]
	if k.colDeg > 0 {
		return k.fusedGatherRowRegular(out, in, bias, cap)
	}
	colPtr, rowIdx, vals := k.colPtr, k.rowIdx, k.vals
	cp := colPtr[1 : len(out)+1]
	nnz := 0
	lo := colPtr[0]
	//radix:bce region=csc-gather allow=slice,index:1
	for c := range out {
		hi := cp[c]
		var acc float64
		w := vals[lo:hi]
		ri := rowIdx[lo:hi][:len(w)]
		for j, wv := range w {
			acc += wv * in[ri[j]]
		}
		lo = hi
		v := acc + bias
		if v <= 0 {
			v = 0
		} else {
			if cap > 0 && v > cap {
				v = cap
			}
			nnz++
		}
		out[c] = v
	}
	//radix:bce end
	return nnz
}

// fusedGatherRowRegular is FusedGatherRow for in-degree-regular kernels:
// four output columns are gathered at once on four independent accumulator
// chains, hiding the floating-point add latency that the single-chain loop
// serializes on. Each column still accumulates its own in-edges in the
// same ascending order, so results are bit-identical to the scalar loop.
// Each column's value/index windows are resliced to w0's length so the
// compiler drops their per-tap bounds checks; only the data-dependent
// in[...] gathers keep theirs.
//
//radix:hotpath
func (k *Kernel) fusedGatherRowRegular(out, in []float64, bias, cap float64) int {
	deg := k.colDeg
	rowIdx, vals := k.rowIdx, k.vals
	nnz := 0
	c := 0
	//radix:bce region=csc-gather-regular allow=slice,index:4
	for ; c+4 <= len(out); c += 4 {
		base := c * deg
		w0 := vals[base : base+deg]
		r0 := rowIdx[base : base+deg][:len(w0)]
		w1 := vals[base+deg : base+2*deg][:len(w0)]
		r1 := rowIdx[base+deg : base+2*deg][:len(w0)]
		w2 := vals[base+2*deg : base+3*deg][:len(w0)]
		r2 := rowIdx[base+2*deg : base+3*deg][:len(w0)]
		w3 := vals[base+3*deg : base+4*deg][:len(w0)]
		r3 := rowIdx[base+3*deg : base+4*deg][:len(w0)]
		var a0, a1, a2, a3 float64
		for j := range w0 {
			a0 += w0[j] * in[r0[j]]
			a1 += w1[j] * in[r1[j]]
			a2 += w2[j] * in[r2[j]]
			a3 += w3[j] * in[r3[j]]
		}
		v0 := a0 + bias
		v1 := a1 + bias
		v2 := a2 + bias
		v3 := a3 + bias
		if v0 <= 0 {
			v0 = 0
		} else {
			if cap > 0 && v0 > cap {
				v0 = cap
			}
			nnz++
		}
		if v1 <= 0 {
			v1 = 0
		} else {
			if cap > 0 && v1 > cap {
				v1 = cap
			}
			nnz++
		}
		if v2 <= 0 {
			v2 = 0
		} else {
			if cap > 0 && v2 > cap {
				v2 = cap
			}
			nnz++
		}
		if v3 <= 0 {
			v3 = 0
		} else {
			if cap > 0 && v3 > cap {
				v3 = cap
			}
			nnz++
		}
		o := out[c : c+4 : c+4]
		o[0] = v0
		o[1] = v1
		o[2] = v2
		o[3] = v3
	}
	//radix:bce end
	// Tail columns (at most three) run outside the gated region.
	for ; c < len(out); c++ {
		base := c * deg
		w := vals[base : base+deg]
		ri := rowIdx[base : base+deg][:len(w)]
		var acc float64
		for j, wv := range w {
			acc += wv * in[ri[j]]
		}
		v := acc + bias
		if v <= 0 {
			v = 0
		} else {
			if cap > 0 && v > cap {
				v = cap
			}
			nnz++
		}
		out[c] = v
	}
	return nnz
}

// FusedScatterRow is the CSR dual of Kernel.FusedGatherRow: the same fused
// feedforward step computed by scattering each *nonzero* input activation
// across its out-edges. For mostly-zero input rows this skips the bulk of
// the multiply work that a gather must still traverse, at the cost of
// touching the output twice (zero-fill + accumulate, then epilogue). The
// inference engine picks gather or scatter per row from the row's exact
// activation count. Accumulation visits contributions in the same
// input-index order as the gather, so the two paths agree bitwise. It does
// not allocate.
func (m *Matrix) FusedScatterRow(out, in []float64, bias, cap float64) int {
	in = in[:m.pat.rows]
	out = out[:m.pat.cols]
	for c := range out {
		out[c] = 0
	}
	rowPtr, colIdx, vals := m.pat.rowPtr, m.pat.colIdx, m.vals
	for r, xv := range in {
		if xv == 0 {
			continue
		}
		lo, hi := rowPtr[r], rowPtr[r+1]
		for i := lo; i < hi; i++ {
			out[colIdx[i]] += xv * vals[i]
		}
	}
	nnz := 0
	for c, acc := range out {
		v := acc + bias
		if v <= 0 {
			v = 0
		} else {
			if cap > 0 && v > cap {
				v = cap
			}
			nnz++
		}
		out[c] = v
	}
	return nnz
}

// FusedGatherRow4 is FusedGatherRow over four batch rows at once: each
// stored entry's column index and weight are loaded once and applied to all
// four rows, quartering index/value memory traffic on the load-bound gather
// loop, while the four accumulator chains hide floating-point add latency.
// Every row accumulates its own in-edges in the same ascending order as
// FusedGatherRow, so per-row results are bit-identical to four single-row
// calls. nnz receives the per-row positive-activation counts. It does not
// allocate. The value/index windows are resliced per column like
// FusedGatherRow's, leaving only the data-dependent in-row gathers
// bounds-checked.
//
//radix:hotpath
func (k *Kernel) FusedGatherRow4(out0, out1, out2, out3, in0, in1, in2, in3 []float64, bias, cap float64, nnz *[4]int) {
	in0 = in0[:k.rows]
	in1 = in1[:k.rows]
	in2 = in2[:k.rows]
	in3 = in3[:k.rows]
	out0 = out0[:k.cols]
	out1 = out1[:k.cols]
	out2 = out2[:k.cols]
	out3 = out3[:k.cols]
	colPtr, rowIdx, vals := k.colPtr, k.rowIdx, k.vals
	cp := colPtr[1 : len(out0)+1]
	var n0, n1, n2, n3 int
	lo := colPtr[0]
	// One IsInBounds: after in0[r] is checked the compiler proves in1..in3
	// (all resliced to k.rows) share its bound.
	//radix:bce region=csc-gather4 allow=slice,index:1
	for c := range out0 {
		hi := cp[c]
		var a0, a1, a2, a3 float64
		w := vals[lo:hi]
		ri := rowIdx[lo:hi][:len(w)]
		for j, wv := range w {
			r := ri[j]
			a0 += wv * in0[r]
			a1 += wv * in1[r]
			a2 += wv * in2[r]
			a3 += wv * in3[r]
		}
		lo = hi
		v0 := a0 + bias
		v1 := a1 + bias
		v2 := a2 + bias
		v3 := a3 + bias
		if v0 <= 0 {
			v0 = 0
		} else {
			if cap > 0 && v0 > cap {
				v0 = cap
			}
			n0++
		}
		if v1 <= 0 {
			v1 = 0
		} else {
			if cap > 0 && v1 > cap {
				v1 = cap
			}
			n1++
		}
		if v2 <= 0 {
			v2 = 0
		} else {
			if cap > 0 && v2 > cap {
				v2 = cap
			}
			n2++
		}
		if v3 <= 0 {
			v3 = 0
		} else {
			if cap > 0 && v3 > cap {
				v3 = cap
			}
			n3++
		}
		out0[c] = v0
		out1[c] = v1
		out2[c] = v2
		out3[c] = v3
	}
	//radix:bce end
	nnz[0], nnz[1], nnz[2], nnz[3] = n0, n1, n2, n3
}

// AffineGatherRow computes one batch row of the linear-layer forward step
//
//	out[c] = Σ_r in[r]·W[r,c] + bias[c]
//
// with a per-column bias and no activation — the sparse.Matrix analogue of
// a dense affine layer, used by the training substrate. It does not
// allocate.
func (k *Kernel) AffineGatherRow(out, in, bias []float64) {
	in = in[:k.rows]
	out = out[:k.cols]
	bias = bias[:k.cols]
	colPtr, rowIdx, vals := k.colPtr, k.rowIdx, k.vals
	lo := colPtr[0]
	for c := range out {
		hi := colPtr[c+1]
		var acc float64
		for i := lo; i < hi; i++ {
			acc += vals[i] * in[rowIdx[i]]
		}
		lo = hi
		out[c] = acc + bias[c]
	}
}
