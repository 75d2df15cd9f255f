package sparse

import (
	"fmt"
	"math/bits"
)

// RadixKernel executes a layer's fused feedforward step from a StridePlan:
// the same gather/scatter semantics as Kernel and Matrix.FusedScatterRow,
// but with every row/column index computed arithmetically from the plan —
// the hot loops load no index array at all, only weight values. On a
// RadiX-Net layer this removes the 4 bytes of int32 index traffic the CSC
// kernel pays per nonzero and takes the load-address computation off the
// memory dependence chain (the next gather address no longer waits on an
// index load).
//
// The kernel reads the value storage of the Kernel (CSC order, for gathers)
// and the Matrix (CSR order, for scatters) it is bound to, through views it
// re-reads from them on every RefreshValues: after any weight mutation —
// which may have moved either onto storage of its own, see Matrix.Values —
// refresh the Kernel, then this (the inference engine's RefreshWeights does).
//
// Bit-identity: gathers accumulate each column's in-edges in ascending row
// order and scatters accumulate input rows in ascending order — the same
// orders as Kernel.FusedGatherRow/FusedGatherRow4 and Matrix.FusedScatterRow
// — so all paths produce bit-identical float64 results.
type RadixKernel struct {
	plan    *StridePlan
	mat     *Matrix
	kern    *Kernel
	cscVals []float64 // kern's values: column-major, ascending row within column
	csrVals []float64 // mat's values: row-major, ascending column within row
	inDeg   int       // dPrev·radix, uniform column in-degree
	outDeg  int       // dNext·radix, uniform row out-degree

	// Stockham (autosort butterfly) mode. In natural layout a large-stride
	// layer's gather revisits each input element at intervals wider than L1
	// — and the power-of-two strides of radix networks alias whole column
	// windows into a single cache set — so every hot-loop load misses. In
	// Stockham mode the layer instead reads its input packed by its own
	// place value (residue-major: element lo+u·pv at position lo·m+u) and
	// writes its output packed by pv·radix, which makes all three hot
	// streams — weights, activations in, activations out — unit-stride.
	// Consecutive layers of a mixed-radix system chain (pv_{l+1} = pv_l·N_l),
	// so the packing composes across the stack with no reorder pass, and the
	// last layer's output packing pv·radix = N′ is the identity: engine
	// inputs and outputs stay in natural order. stVals is the weight stream
	// re-sequenced for that column visit order: cscVals itself while every
	// value is the same (ownST false), else a copy this kernel owns, which
	// RefreshValues re-derives after weight mutation. nil unless
	// EnableStockham succeeded.
	stVals []float64
	ownST  bool
}

// CanStockham reports whether the plan admits the Stockham packed layout:
// no Kronecker lift and an output packing pv·radix that divides N′. The
// engine additionally requires the layer layouts to chain across the stack.
func (p *StridePlan) CanStockham() bool {
	return p.dPrev == 1 && p.dNext == 1 && p.np%(p.pv*p.radix) == 0
}

// InPackPos returns the position of input row r in the layer's Stockham
// input layout (packed by pv): residue class first, then quotient.
func (p *StridePlan) InPackPos(r int) int { return (r%p.pv)*p.m + r/p.pv }

// OutPackPos returns the position of output column c in the layer's
// Stockham output layout (packed by pv·radix). When pv·radix = N′ — the
// last layer of a system — this is the identity, so the stack's final
// output needs no unpacking.
func (p *StridePlan) OutPackPos(c int) int {
	sp := p.pv * p.radix
	return (c%sp)*(p.np/sp) + c/sp
}

// NewRadixKernel binds a compiled stride plan to the matrix and CSC kernel
// it schedules. All three must be built on the identical Pattern the plan
// was verified against; mismatches are rejected rather than silently
// scrambling the value ordering.
func NewRadixKernel(m *Matrix, k *Kernel, plan *StridePlan) (*RadixKernel, error) {
	if m.pat != plan.src || k.src != plan.src {
		return nil, fmt.Errorf("sparse: radix kernel requires matrix, kernel and plan built on the identical pattern (%s)", plan)
	}
	if k.colDeg != plan.ColDegree() {
		return nil, fmt.Errorf("sparse: kernel column degree %d, plan implies %d", k.colDeg, plan.ColDegree())
	}
	rk := &RadixKernel{
		plan: plan, mat: m, kern: k,
		inDeg:  plan.ColDegree(),
		outDeg: plan.dNext * plan.radix,
	}
	rk.RefreshValues()
	return rk, nil
}

// EnableStockham switches the kernel to the packed Stockham layout (see the
// stVals field comment). The caller — normally the inference engine — is
// responsible for only enabling it when the whole layer stack chains, since
// a Stockham kernel expects packed inputs and produces packed outputs.
// Idempotent; errors when the plan cannot support the layout.
func (rk *RadixKernel) EnableStockham() error {
	if rk.stVals != nil {
		return nil
	}
	if !rk.plan.CanStockham() {
		return fmt.Errorf("sparse: plan %s does not admit the Stockham layout", rk.plan)
	}
	rk.stVals = rk.cscVals // Stockham from here on; RefreshValues decides whose storage it reads
	rk.RefreshValues()
	return nil
}

// Stockham reports whether the kernel runs in the packed Stockham layout.
func (rk *RadixKernel) Stockham() bool { return rk.stVals != nil }

// RefreshValues re-reads the CSC and CSR views from the Kernel and Matrix the
// kernel is bound to and, in Stockham mode, re-derives the Stockham-ordered
// weight stream from them. A layer whose values are all equal — every layer
// FromConfig builds — has no copy to keep: stVals reads the CSC storage,
// whoever owns that, until the values differ. O(NNZ); allocates only then.
func (rk *RadixKernel) RefreshValues() {
	rk.cscVals, rk.csrVals = rk.kern.vals, rk.mat.vals
	if rk.stVals == nil {
		return
	}
	vals := rk.cscVals
	oneWeight := true
	for _, v := range vals {
		if v != vals[0] {
			oneWeight = false
			break
		}
	}
	if oneWeight {
		rk.stVals, rk.ownST = vals, false
		return
	}
	if !rk.ownST {
		rk.stVals, rk.ownST = make([]float64, len(vals)), true
	}
	p, deg := rk.plan, rk.inDeg
	sp := p.pv * p.radix
	mp := p.np / sp
	i := 0
	for lop := 0; lop < sp; lop++ {
		lo, k := lop%p.pv, lop/p.pv
		for up := 0; up < mp; up++ {
			cc := lo + (up*p.radix+k)*p.pv
			copy(rk.stVals[i:i+deg], vals[cc*deg:(cc+1)*deg])
			i += deg
		}
	}
}

// Plan returns the stride plan the kernel executes.
func (rk *RadixKernel) Plan() *StridePlan { return rk.plan }

// Rows returns the input dimension.
func (rk *RadixKernel) Rows() int { return rk.plan.rows }

// Cols returns the output dimension.
func (rk *RadixKernel) Cols() int { return rk.plan.cols }

// FusedGatherRow computes one batch row of the fused feedforward step
// out[c] = min(cap, max(0, Σ_r in[r]·W[r,c] + bias)), returning the number
// of positive outputs — Kernel.FusedGatherRow with arithmetic addressing.
// It does not allocate.
// In Stockham mode in and out use the packed layouts given by
// Plan().InPackPos and Plan().OutPackPos.
//
//radix:hotpath
func (rk *RadixKernel) FusedGatherRow(out, in []float64, bias, cap float64) int {
	if rk.stVals != nil {
		return rk.fusedGatherRowST(out, in, bias, cap)
	}
	p := rk.plan
	in = in[:p.rows]
	out = out[:p.cols]
	vals := rk.cscVals
	np, pv, m, dPrev := p.np, p.pv, p.m, p.dPrev
	nnz := 0
	vi := 0
	c := 0
	for bcol := 0; bcol < p.dNext; bcol++ {
		lo, t := 0, 0
		for cc := 0; cc < np; cc++ {
			// In-rows of this column: ≤2 ascending stride-pv runs per block.
			t1, n1, t2, n2 := p.colRuns(t)
			var acc float64
			for a := 0; a < dPrev; a++ {
				base := a*np + lo
				q := base + t1*pv
				for j := 0; j < n1; j++ {
					acc += vals[vi] * in[q]
					vi++
					q += pv
				}
				q = base + t2*pv
				for j := 0; j < n2; j++ {
					acc += vals[vi] * in[q]
					vi++
					q += pv
				}
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
			c++
			lo++
			if lo == pv {
				lo = 0
				t++
				if t == m {
					t = 0
				}
			}
		}
	}
	return nnz
}

// FusedGatherRow4 is FusedGatherRow over four batch rows at once: each
// weight is loaded once and applied to all four rows on independent
// accumulator chains, and — unlike Kernel.FusedGatherRow4 — the in-edge
// addresses are generated arithmetically, so the quad loop performs zero
// index loads. Per-row results are bit-identical to four FusedGatherRow
// calls. nnz receives the per-row positive-activation counts. It does not
// allocate.
// In Stockham mode all slices use the packed layouts.
func (rk *RadixKernel) FusedGatherRow4(out0, out1, out2, out3, in0, in1, in2, in3 []float64, bias, cap float64, nnz *[4]int) {
	if rk.stVals != nil {
		rk.fusedGatherRow4ST(out0, out1, out2, out3, in0, in1, in2, in3, bias, cap, nnz)
		return
	}
	p := rk.plan
	rows := p.rows
	in0 = in0[:rows]
	in1 = in1[:rows]
	in2 = in2[:rows]
	in3 = in3[:rows]
	cols := p.cols
	out0 = out0[:cols]
	out1 = out1[:cols]
	out2 = out2[:cols]
	out3 = out3[:cols]
	vals := rk.cscVals
	np, pv, radix, m, dPrev := p.np, p.pv, p.radix, p.m, p.dPrev
	var c0nnz, c1nnz, c2nnz, c3nnz int
	vi := 0
	c := 0
	for bcol := 0; bcol < p.dNext; bcol++ {
		lo, t := 0, 0
		for cc := 0; cc < np; cc++ {
			var a0, a1, a2, a3 float64
			if t >= radix-1 && dPrev == 1 {
				// Fast path (pure EMR layer, no circulant wrap): one
				// contiguous stride-pv run of exactly radix edges.
				q := lo + (t-radix+1)*pv
				for j := 0; j < radix; j++ {
					w := vals[vi]
					vi++
					a0 += w * in0[q]
					a1 += w * in1[q]
					a2 += w * in2[q]
					a3 += w * in3[q]
					q += pv
				}
			} else {
				t1, n1, t2, n2 := p.colRuns(t)
				for a := 0; a < dPrev; a++ {
					base := a*np + lo
					q := base + t1*pv
					for j := 0; j < n1; j++ {
						w := vals[vi]
						vi++
						a0 += w * in0[q]
						a1 += w * in1[q]
						a2 += w * in2[q]
						a3 += w * in3[q]
						q += pv
					}
					q = base + t2*pv
					for j := 0; j < n2; j++ {
						w := vals[vi]
						vi++
						a0 += w * in0[q]
						a1 += w * in1[q]
						a2 += w * in2[q]
						a3 += w * in3[q]
						q += pv
					}
				}
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
				c0nnz++
			}
			if v1 <= 0 {
				v1 = 0
			} else {
				if cap > 0 && v1 > cap {
					v1 = cap
				}
				c1nnz++
			}
			if v2 <= 0 {
				v2 = 0
			} else {
				if cap > 0 && v2 > cap {
					v2 = cap
				}
				c2nnz++
			}
			if v3 <= 0 {
				v3 = 0
			} else {
				if cap > 0 && v3 > cap {
					v3 = cap
				}
				c3nnz++
			}
			out0[c] = v0
			out1[c] = v1
			out2[c] = v2
			out3[c] = v3
			c++
			lo++
			if lo == pv {
				lo = 0
				t++
				if t == m {
					t = 0
				}
			}
		}
	}
	nnz[0], nnz[1], nnz[2], nnz[3] = c0nnz, c1nnz, c2nnz, c3nnz
}

// FusedGatherRow8 is FusedGatherRow over eight batch rows at once — the
// blocking the structure makes affordable. A CSC gather must load a row
// index per stored entry, so widening its batch block leaves the index
// traffic in place; here the addresses are arithmetic, so an octet performs
// nine loads per eight edge-ops (one weight + eight activations) against
// the CSC quad's twelve. The eight accumulator chains are independent, but
// the compiled tap loop is eight MULSD/ADDSD pairs (Go emits no FMA on amd64)
// with two chains and the tap counter parked on the stack: 0.42 ns/edge at
// ν = 1 and 0.63 at ν = 32 on Graph Challenge 1024, strided loads included.
// Per-row results are bit-identical to eight FusedGatherRow calls. nnz
// receives the per-row positive-activation counts. It does not allocate.
// In Stockham mode all slices use the packed layouts.
func (rk *RadixKernel) FusedGatherRow8(outs, ins *[8][]float64, bias, cap float64, nnz *[8]int) {
	if rk.stVals != nil {
		rk.fusedGatherRow8ST(outs, ins, bias, cap, nnz)
		return
	}
	p := rk.plan
	rows, cols := p.rows, p.cols
	in0, in1, in2, in3 := ins[0][:rows], ins[1][:rows], ins[2][:rows], ins[3][:rows]
	in4, in5, in6, in7 := ins[4][:rows], ins[5][:rows], ins[6][:rows], ins[7][:rows]
	out0, out1, out2, out3 := outs[0][:cols], outs[1][:cols], outs[2][:cols], outs[3][:cols]
	out4, out5, out6, out7 := outs[4][:cols], outs[5][:cols], outs[6][:cols], outs[7][:cols]
	vals := rk.cscVals
	np, pv, radix, m, dPrev := p.np, p.pv, p.radix, p.m, p.dPrev
	var n [8]int
	vi := 0
	c := 0
	for bcol := 0; bcol < p.dNext; bcol++ {
		lo, t := 0, 0
		for cc := 0; cc < np; cc++ {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			if t >= radix-1 && dPrev == 1 {
				// Fast path (pure EMR layer, no circulant wrap): one
				// contiguous stride-pv run of exactly radix edges.
				q := lo + (t-radix+1)*pv
				for _, w := range vals[vi : vi+radix] {
					a0 += w * in0[q]
					a1 += w * in1[q]
					a2 += w * in2[q]
					a3 += w * in3[q]
					a4 += w * in4[q]
					a5 += w * in5[q]
					a6 += w * in6[q]
					a7 += w * in7[q]
					q += pv
				}
				vi += radix
			} else {
				t1, n1, t2, n2 := p.colRuns(t)
				for a := 0; a < dPrev; a++ {
					base := a*np + lo
					q := base + t1*pv
					for j := 0; j < n1; j++ {
						w := vals[vi]
						vi++
						a0 += w * in0[q]
						a1 += w * in1[q]
						a2 += w * in2[q]
						a3 += w * in3[q]
						a4 += w * in4[q]
						a5 += w * in5[q]
						a6 += w * in6[q]
						a7 += w * in7[q]
						q += pv
					}
					q = base + t2*pv
					for j := 0; j < n2; j++ {
						w := vals[vi]
						vi++
						a0 += w * in0[q]
						a1 += w * in1[q]
						a2 += w * in2[q]
						a3 += w * in3[q]
						a4 += w * in4[q]
						a5 += w * in5[q]
						a6 += w * in6[q]
						a7 += w * in7[q]
						q += pv
					}
				}
			}
			v0 := a0 + bias
			v1 := a1 + bias
			v2 := a2 + bias
			v3 := a3 + bias
			v4 := a4 + bias
			v5 := a5 + bias
			v6 := a6 + bias
			v7 := a7 + bias
			if v0 <= 0 {
				v0 = 0
			} else {
				if cap > 0 && v0 > cap {
					v0 = cap
				}
				n[0]++
			}
			if v1 <= 0 {
				v1 = 0
			} else {
				if cap > 0 && v1 > cap {
					v1 = cap
				}
				n[1]++
			}
			if v2 <= 0 {
				v2 = 0
			} else {
				if cap > 0 && v2 > cap {
					v2 = cap
				}
				n[2]++
			}
			if v3 <= 0 {
				v3 = 0
			} else {
				if cap > 0 && v3 > cap {
					v3 = cap
				}
				n[3]++
			}
			if v4 <= 0 {
				v4 = 0
			} else {
				if cap > 0 && v4 > cap {
					v4 = cap
				}
				n[4]++
			}
			if v5 <= 0 {
				v5 = 0
			} else {
				if cap > 0 && v5 > cap {
					v5 = cap
				}
				n[5]++
			}
			if v6 <= 0 {
				v6 = 0
			} else {
				if cap > 0 && v6 > cap {
					v6 = cap
				}
				n[6]++
			}
			if v7 <= 0 {
				v7 = 0
			} else {
				if cap > 0 && v7 > cap {
					v7 = cap
				}
				n[7]++
			}
			out0[c] = v0
			out1[c] = v1
			out2[c] = v2
			out3[c] = v3
			out4[c] = v4
			out5[c] = v5
			out6[c] = v6
			out7[c] = v7
			c++
			lo++
			if lo == pv {
				lo = 0
				t++
				if t == m {
					t = 0
				}
			}
		}
	}
	*nnz = n
}

// fusedGatherRowST is the single-row gather in the Stockham layout: the
// input arrives packed by pv, so each column's in-edge window is a
// contiguous unit-stride run of radix elements inside one residue block,
// the re-sequenced weight copy keeps the value stream unit-stride, and the
// output is written sequentially in the pv·radix packing the next layer
// reads. Column visit ORDER changes but each column still accumulates its
// in-edges in ascending row order, so outputs are bit-identical (modulo
// layout) to the natural-order path.
func (rk *RadixKernel) fusedGatherRowST(out, in []float64, bias, cap float64) int {
	p := rk.plan
	in = in[:p.rows]
	out = out[:p.cols]
	vals := rk.stVals
	pv, radix, m := p.pv, p.radix, p.m
	sp := pv * radix
	mp := p.np / sp
	nnz := 0
	vi := 0
	c := 0
	lo, k := 0, 0 // lop = k·pv + lo, maintained incrementally (no div/mod)
	for lop := 0; lop < sp; lop++ {
		base := lo * m
		for up := 0; up < mp; up++ {
			t := up*radix + k
			var acc float64
			if t >= radix-1 || m == radix {
				// Single unit-stride run: the unwrapped window, or — when
				// m = radix (a system's last layer) — the full block, whose
				// two wrap fragments abut (t2 = n1) into one run from base.
				s := base
				if t >= radix-1 {
					s += t - radix + 1
				}
				w := vals[vi : vi+radix]
				vi += radix
				b := in[s : s+radix]
				for j, wv := range w {
					acc += wv * b[j]
				}
			} else {
				// Wrapped column: runs 0..t and m-wrap..m-1, each a window.
				t1, n1, t2, n2 := p.colRuns(t)
				w := vals[vi : vi+n1]
				vi += n1
				b := in[base+t1 : base+t1+n1]
				for j, wv := range w {
					acc += wv * b[j]
				}
				w = vals[vi : vi+n2]
				vi += n2
				b = in[base+t2 : base+t2+n2]
				for j, wv := range w {
					acc += wv * b[j]
				}
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
			c++
		}
		lo++
		if lo == pv {
			lo = 0
			k++
		}
	}
	return nnz
}

// fusedGatherRow4ST is fusedGatherRowST over four batch rows sharing each
// weight load.
func (rk *RadixKernel) fusedGatherRow4ST(out0, out1, out2, out3, in0, in1, in2, in3 []float64, bias, cap float64, nnz *[4]int) {
	p := rk.plan
	rows, cols := p.rows, p.cols
	in0, in1, in2, in3 = in0[:rows], in1[:rows], in2[:rows], in3[:rows]
	out0, out1, out2, out3 = out0[:cols], out1[:cols], out2[:cols], out3[:cols]
	vals := rk.stVals
	pv, radix, m := p.pv, p.radix, p.m
	sp := pv * radix
	mp := p.np / sp
	var n [4]int
	vi := 0
	c := 0
	lo, k := 0, 0 // lop = k·pv + lo, maintained incrementally (no div/mod)
	for lop := 0; lop < sp; lop++ {
		base := lo * m
		for up := 0; up < mp; up++ {
			t := up*radix + k
			var a0, a1, a2, a3 float64
			if t >= radix-1 || m == radix {
				s := base
				if t >= radix-1 {
					s += t - radix + 1
				}
				w := vals[vi : vi+radix]
				vi += radix
				b0, b1, b2, b3 := in0[s:s+radix], in1[s:s+radix], in2[s:s+radix], in3[s:s+radix]
				for j, wv := range w {
					a0 += wv * b0[j]
					a1 += wv * b1[j]
					a2 += wv * b2[j]
					a3 += wv * b3[j]
				}
			} else {
				t1, n1, t2, n2 := p.colRuns(t)
				s := base + t1
				w := vals[vi : vi+n1]
				vi += n1
				b0, b1, b2, b3 := in0[s:s+n1], in1[s:s+n1], in2[s:s+n1], in3[s:s+n1]
				for j, wv := range w {
					a0 += wv * b0[j]
					a1 += wv * b1[j]
					a2 += wv * b2[j]
					a3 += wv * b3[j]
				}
				s = base + t2
				w = vals[vi : vi+n2]
				vi += n2
				b0, b1, b2, b3 = in0[s:s+n2], in1[s:s+n2], in2[s:s+n2], in3[s:s+n2]
				for j, wv := range w {
					a0 += wv * b0[j]
					a1 += wv * b1[j]
					a2 += wv * b2[j]
					a3 += wv * b3[j]
				}
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
				n[0]++
			}
			if v1 <= 0 {
				v1 = 0
			} else {
				if cap > 0 && v1 > cap {
					v1 = cap
				}
				n[1]++
			}
			if v2 <= 0 {
				v2 = 0
			} else {
				if cap > 0 && v2 > cap {
					v2 = cap
				}
				n[2]++
			}
			if v3 <= 0 {
				v3 = 0
			} else {
				if cap > 0 && v3 > cap {
					v3 = cap
				}
				n[3]++
			}
			out0[c] = v0
			out1[c] = v1
			out2[c] = v2
			out3[c] = v3
			c++
		}
		lo++
		if lo == pv {
			lo = 0
			k++
		}
	}
	nnz[0], nnz[1], nnz[2], nnz[3] = n[0], n[1], n[2], n[3]
}

// fusedGatherRow8ST is the weighted octet gather in the Stockham layout. All
// three streams are unit-stride (weights, packed inputs within a residue
// block, packed outputs) and there are zero index loads: nine sequential
// loads per eight edge-ops against the CSC quad's twelve (four of them
// strided index-dependent gathers). What the compiler makes of the tap loop
// is ≈ 40 instructions per tap — eight MULSD/ADDSD pairs (Go emits no FMA on
// amd64), with two of the eight accumulator chains and the tap counter
// parked on the stack each iteration — and it measures 0.41–0.48 ns/edge on
// Graph Challenge 1024, where eight register-only add chains run at 0.087
// ns/add on the same host. A one-weight layer runs it too: an unweighted sum
// scaled once is faster on dense octets but exact only inside an input window,
// which no caller's batches reached.
//
//radix:hotpath
func (rk *RadixKernel) fusedGatherRow8ST(outs, ins *[8][]float64, bias, cap float64, nnz *[8]int) {
	p := rk.plan
	rows, cols := p.rows, p.cols
	in0, in1, in2, in3 := ins[0][:rows], ins[1][:rows], ins[2][:rows], ins[3][:rows]
	in4, in5, in6, in7 := ins[4][:rows], ins[5][:rows], ins[6][:rows], ins[7][:rows]
	out0, out1, out2, out3 := outs[0][:cols], outs[1][:cols], outs[2][:cols], outs[3][:cols]
	out4, out5, out6, out7 := outs[4][:cols], outs[5][:cols], outs[6][:cols], outs[7][:cols]
	vals := rk.stVals
	pv, radix, m := p.pv, p.radix, p.m
	sp := pv * radix
	mp := p.np / sp
	var n [8]int
	vi := 0
	c := 0
	lo, k := 0, 0 // lop = k·pv + lo, maintained incrementally (no div/mod)
	for lop := 0; lop < sp; lop++ {
		base := lo * m
		for up := 0; up < mp; up++ {
			t := up*radix + k
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			if t >= radix-1 || m == radix {
				// Equal-length windows over the packed run: indexing sibling
				// slices by the range variable of a same-length window lets
				// the compiler drop the bounds check on all eight loads. When
				// m = radix (a system's last layer) every column reads its
				// full block — the wrap fragments abut — so it's this single
				// run from base too.
				s := base
				if t >= radix-1 {
					s += t - radix + 1
				}
				w := vals[vi : vi+radix]
				vi += radix
				b0, b1, b2, b3 := in0[s:s+radix], in1[s:s+radix], in2[s:s+radix], in3[s:s+radix]
				b4, b5, b6, b7 := in4[s:s+radix], in5[s:s+radix], in6[s:s+radix], in7[s:s+radix]
				for j, wv := range w {
					a0 += wv * b0[j]
					a1 += wv * b1[j]
					a2 += wv * b2[j]
					a3 += wv * b3[j]
					a4 += wv * b4[j]
					a5 += wv * b5[j]
					a6 += wv * b6[j]
					a7 += wv * b7[j]
				}
			} else {
				// Wrapped column — every column of a layer with m = radix
				// lands here, so it gets the same windowed BCE-free form,
				// one fragment at a time.
				t1, n1, t2, n2 := p.colRuns(t)
				s := base + t1
				w := vals[vi : vi+n1]
				vi += n1
				b0, b1, b2, b3 := in0[s:s+n1], in1[s:s+n1], in2[s:s+n1], in3[s:s+n1]
				b4, b5, b6, b7 := in4[s:s+n1], in5[s:s+n1], in6[s:s+n1], in7[s:s+n1]
				for j, wv := range w {
					a0 += wv * b0[j]
					a1 += wv * b1[j]
					a2 += wv * b2[j]
					a3 += wv * b3[j]
					a4 += wv * b4[j]
					a5 += wv * b5[j]
					a6 += wv * b6[j]
					a7 += wv * b7[j]
				}
				s = base + t2
				w = vals[vi : vi+n2]
				vi += n2
				b0, b1, b2, b3 = in0[s:s+n2], in1[s:s+n2], in2[s:s+n2], in3[s:s+n2]
				b4, b5, b6, b7 = in4[s:s+n2], in5[s:s+n2], in6[s:s+n2], in7[s:s+n2]
				for j, wv := range w {
					a0 += wv * b0[j]
					a1 += wv * b1[j]
					a2 += wv * b2[j]
					a3 += wv * b3[j]
					a4 += wv * b4[j]
					a5 += wv * b5[j]
					a6 += wv * b6[j]
					a7 += wv * b7[j]
				}
			}
			out0[c] = reluCap(a0+bias, cap, &n[0])
			out1[c] = reluCap(a1+bias, cap, &n[1])
			out2[c] = reluCap(a2+bias, cap, &n[2])
			out3[c] = reluCap(a3+bias, cap, &n[3])
			out4[c] = reluCap(a4+bias, cap, &n[4])
			out5[c] = reluCap(a5+bias, cap, &n[5])
			out6[c] = reluCap(a6+bias, cap, &n[6])
			out7[c] = reluCap(a7+bias, cap, &n[7])
			c++
		}
		lo++
		if lo == pv {
			lo = 0
			k++
		}
	}
	*nnz = n
}

// reluCap is the fused epilogue for one output whose bias is already added:
// max(0, v) clamped to cap when cap > 0, counting the output in *live when it
// is not ≤ 0 (so a NaN stays, and counts). It inlines. The Stockham octet uses
// it, where it measures the same as the written-out form; the natural-order
// octet keeps that form, which
// measured 0.60 against 0.71 ns/edge with the helper on radix 8 at ν = 8.
func reluCap(v, cap float64, live *int) float64 {
	if v <= 0 {
		return 0
	}
	if cap > 0 && v > cap {
		v = cap
	}
	*live++
	return v
}

// FusedScatterRow is the CSR dual with arithmetic addressing: the fused
// feedforward step computed by scattering each nonzero input activation
// across its out-edges, whose columns are generated from the plan instead of
// loaded from the pattern's index array. Mostly-zero rows take this path in
// the engine, so layer 0 of a Graph Challenge workload is index-free too.
// Accumulation visits input rows in ascending order, matching
// Matrix.FusedScatterRow bit-for-bit. It does not allocate.
func (rk *RadixKernel) FusedScatterRow(out, in []float64, bias, cap float64) int {
	p := rk.plan
	in = in[:p.rows]
	out = out[:p.cols]
	for c := range out {
		out[c] = 0
	}
	vals := rk.csrVals
	np, pv, radix, m, dNext := p.np, p.pv, p.radix, p.m, p.dNext
	outDeg := rk.outDeg
	// lo = (r mod np) mod pv and t = (r mod np) / pv are maintained
	// incrementally — the skip-heavy loop pays two increments per row
	// instead of two divisions.
	lo, t := 0, 0
	for r, xv := range in {
		if xv != 0 {
			// Out-cols of this row: wrapped low fragment first, then t..end.
			n2 := radix
			n1 := 0
			if hi := t + radix - 1; hi >= m {
				n1 = hi - m + 1
				n2 = m - t
			}
			vi := r * outDeg // row-major values start at r·outDeg
			for b := 0; b < dNext; b++ {
				base := b*np + lo
				q := base
				for j := 0; j < n1; j++ {
					out[q] += xv * vals[vi]
					vi++
					q += pv
				}
				q = base + t*pv
				for j := 0; j < n2; j++ {
					out[q] += xv * vals[vi]
					vi++
					q += pv
				}
			}
		}
		lo++
		if lo == pv {
			lo = 0
			t++
			if t == m {
				t = 0
			}
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

// FusedScatterRowStockham is the scatter path for Stockham-mode kernels: in
// is packed by pv and out is written packed by pv·radix. Accumulation runs
// in natural column layout inside the caller-provided scratch (len ≥ cols) —
// contiguous stride-pv runs exactly as FusedScatterRow, which keeps the
// dominant first-layer case (pv = 1) unit-stride — and the fused epilogue
// then writes bias/ReLU/cap results into out in packed order with a single
// incrementally-maintained permuted index, so the permutation costs one
// buffered store per column instead of radix strided read-modify-writes per
// edge. Every output column's contributors share one input residue class, so
// the packed iteration still visits them in ascending row order: results are
// bit-identical (modulo layout) to FusedScatterRow. It does not allocate.
//
// nz, when non-nil, lists the row's nonzero positions (ascending, exactly the
// positions whose values compare != 0). Engines discover them once while
// staging the batch, so handing them over removes the ring path's full-width
// skip scan — its only cost that scales with N′ rather than with the live
// edge count. nil means scan; the scratch-and-epilogue path always scans.
func (rk *RadixKernel) FusedScatterRowStockham(out, in []float64, nz []int32, scratch []float64, bias, cap float64) int {
	p := rk.plan
	in = in[:p.rows]
	out = out[:p.cols]
	pv, radix, m := p.pv, p.radix, p.m
	if pv == 1 && bias <= 0 && radix&(radix-1) == 0 && 2*radix <= len(scratch) {
		return rk.scatterRowRing(out, in, nz, scratch[:2*radix], bias, cap)
	}
	scratch = scratch[:p.cols]
	for c := range scratch {
		scratch[c] = 0
	}
	vals := rk.csrVals
	if pv == 1 {
		// First layer of a system: packed input is natural input and the
		// out-col runs are contiguous, so both accumulation fragments become
		// equal-length windows — bounds checks vanish from the hot loop.
		for r, xv := range in {
			if xv == 0 {
				continue
			}
			n2 := radix
			n1 := 0
			if hi := r + radix - 1; hi >= m {
				n1 = hi - m + 1
				n2 = m - r
			}
			vi := r * radix
			w := vals[vi : vi+n1]
			dst := scratch[:n1]
			for j, wv := range w {
				dst[j] += xv * wv
			}
			w = vals[vi+n1 : vi+n1+n2]
			dst = scratch[r : r+n2]
			for j, wv := range w {
				dst[j] += xv * wv
			}
		}
		return rk.packedEpilogue(out, scratch, bias, cap)
	}
	pos := 0
	for lo := 0; lo < pv; lo++ {
		r := lo
		for t := 0; t < m; t++ {
			xv := in[pos]
			pos++
			if xv != 0 {
				// Natural out-cols of row r: wrapped low fragment, then t..end.
				n2 := radix
				n1 := 0
				if hi := t + radix - 1; hi >= m {
					n1 = hi - m + 1
					n2 = m - t
				}
				vi := r * radix
				q := lo
				for j := 0; j < n1; j++ {
					scratch[q] += xv * vals[vi]
					vi++
					q += pv
				}
				q = lo + t*pv
				for j := 0; j < n2; j++ {
					scratch[q] += xv * vals[vi]
					vi++
					q += pv
				}
			}
			r += pv
		}
	}
	return rk.packedEpilogue(out, scratch, bias, cap)
}

// scatterRowRing is the sliding-window scatter for first-of-system layers
// (pv = 1) with power-of-two radix and non-positive bias, which is the
// configuration every engine scatter step actually runs; anything else takes
// the scratch-and-epilogue path. Power-of-two radix turns the slot and block
// indices into mask/shift, so the skip-heavy row scan carries no state at
// all. With pv = 1 the out-edge window of input row r
// is the column interval [r, r+radix−1] (mod m): advancing one row slides the
// window by one column, so at most radix columns are ever incomplete at once.
// A ring of radix accumulators retires each column with a single packed store
// the moment its last contributor passes — no natural-layout scratch array,
// no O(N′) zero-fill and no separate permutation pass, so the packed layout
// costs one store per *live* column instead of one per column. Columns whose
// edges wrap past m accumulate in a small head buffer finalized after the
// sweep. Untouched columns keep the zero the output was cleared to, which
// equals ReLU(acc+bias) for acc = 0, bias ≤ 0. Per-column accumulation order
// is ascending contributor row, the same as FusedScatterRow: results are
// bit-identical (modulo layout). ring must have length ≥ 2·radix; it is
// scratch space only, no state is kept between calls. Live rows come from nz
// when the caller has it and from a skip scan of in otherwise; row discovery
// is the only thing the two differ in. Columns retire on !(v <= 0), not v > 0,
// so a NaN stays live exactly as in every other epilogue.
func (rk *RadixKernel) scatterRowRing(out, in []float64, nz []int32, ring []float64, bias, cap float64) int {
	p := rk.plan
	radix, m := p.radix, p.m
	mp := p.np / radix // output rows per packed residue block (sp = radix)
	vals := rk.csrVals
	for c := range out {
		out[c] = 0
	}
	head := ring[radix : 2*radix] // head[c]: wrap columns c < radix-1
	ring = ring[:radix]           // ring[c%radix]: in-flight columns c ≥ radix-1
	for i := range ring {
		ring[i] = 0
	}
	for i := range head {
		head[i] = 0
	}
	nnz := 0
	// Touched-but-unretired non-head columns form the window [pLo, pHi]
	// (width ≤ radix). sLo/dLo mirror pLo%radix and pLo/radix, and sR/dR
	// mirror r%radix and r/radix, all maintained incrementally so the loop
	// runs without a single division. A slot is always retired (and zeroed)
	// before the column radix places later can touch it: column c+radix's
	// first possible contributor is row c+1, and all columns < r retire
	// before row r accumulates.
	mask := radix - 1
	sh := bits.TrailingZeros(uint(radix))
	pLo, pHi := 0, -1
	r, i := -1, 0
	for {
		if nz != nil {
			if i == len(nz) {
				break
			}
			r = int(nz[i])
			i++
		} else {
			for r++; r < len(in) && in[r] == 0; r++ {
			}
			if r == len(in) {
				break
			}
		}
		xv := in[r]
		if pHi >= 0 {
			// Retire columns whose contributor interval ended before r.
			end := r - 1
			if end > pHi {
				end = pHi
			}
			sLo, dLo := pLo&mask, pLo>>sh
			for c := pLo; c <= end; c++ {
				if acc := ring[sLo]; acc != 0 {
					ring[sLo] = 0
					if v := acc + bias; !(v <= 0) {
						if cap > 0 && v > cap {
							v = cap
						}
						out[sLo*mp+dLo] = v
						nnz++
					}
				}
				sLo++
				if sLo == radix {
					sLo = 0
					dLo++
				}
			}
			pLo = end + 1
		}
		if pLo > pHi {
			// Gap emptied the window; realign it to row r.
			pLo = r
		}
		vi := r * radix
		n2 := radix
		if hi := r + radix - 1; hi >= m {
			// Row-ascending CSR order puts the wrapped head columns first.
			n1 := hi - m + 1
			n2 = m - r
			for j := 0; j < n1; j++ {
				head[j] += xv * vals[vi]
				vi++
			}
		}
		if r >= radix-1 {
			// Slots r&mask..radix-1 then 0.. — two equal-length windows, so
			// both the wrap test and the bounds checks leave the loop.
			sR := r & mask
			k1 := radix - sR
			if k1 > n2 {
				k1 = n2
			}
			a := ring[sR : sR+k1]
			for j, wv := range vals[vi : vi+k1] {
				a[j] += xv * wv
			}
			if k2 := n2 - k1; k2 > 0 {
				a = ring[:k2]
				for j, wv := range vals[vi+k1 : vi+n2] {
					a[j] += xv * wv
				}
			}
		} else {
			// Early rows: columns below radix-1 belong to the head buffer.
			for j := 0; j < n2; j++ {
				if c := r + j; c < radix-1 {
					head[c] += xv * vals[vi]
				} else {
					ring[c&mask] += xv * vals[vi]
				}
				vi++
			}
		}
		if pHi = r + radix - 1; pHi >= m {
			pHi = m - 1
		}
	}
	sLo, dLo := pLo&mask, pLo>>sh
	for c := pLo; c <= pHi; c++ {
		if acc := ring[sLo]; acc != 0 {
			if v := acc + bias; !(v <= 0) {
				if cap > 0 && v > cap {
					v = cap
				}
				out[sLo*mp+dLo] = v
				nnz++
			}
		}
		sLo++
		if sLo == radix {
			sLo = 0
			dLo++
		}
	}
	for c, acc := range head[:radix-1] {
		if acc == 0 {
			continue
		}
		if v := acc + bias; !(v <= 0) {
			if cap > 0 && v > cap {
				v = cap
			}
			out[c*mp] = v // OutPackPos(c) for c < radix
			nnz++
		}
	}
	return nnz
}

// packedEpilogue applies the fused bias/ReLU/cap pass to the natural-layout
// accumulators in scratch, writing results into out in the plan's packed
// output layout with a single incrementally-maintained permuted index. The
// stores stride m′ apart but drain through the store buffer; keeping the
// *loads* sequential measures faster here than the tiled transpose that
// would make the stores sequential at the cost of strided loads.
func (rk *RadixKernel) packedEpilogue(out, scratch []float64, bias, cap float64) int {
	p := rk.plan
	np := p.np
	sp := p.pv * p.radix
	mp := np / sp
	nnz := 0
	pc := 0 // OutPackPos(c), maintained incrementally
	for _, acc := range scratch {
		v := acc + bias
		if v <= 0 {
			v = 0
		} else {
			if cap > 0 && v > cap {
				v = cap
			}
			nnz++
		}
		out[pc] = v
		pc += mp
		if pc >= np {
			pc -= np - 1
		}
	}
	return nnz
}
