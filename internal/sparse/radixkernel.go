package sparse

import "fmt"

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
// and the Matrix (CSR order, for scatters) it is bound to on every call, so a
// weight mutation — which may have moved either onto storage of its own, see
// Matrix.Values — is seen as soon as the Kernel is refreshed.
//
// Bit-identity: gathers accumulate each column's in-edges in ascending row
// order and scatters accumulate input rows in ascending order — the same
// orders as Kernel.FusedGatherRow/FusedGatherRow4 and Matrix.FusedScatterRow
// — so all paths produce bit-identical float64 results.
//
// No engine runs it: the engine runs the CSC gather / CSR scatter pair. It
// survives only because radixbench's sparse.* probes time it, and goes, with
// NewRadixKernel and StridePlan's runtime half, in the benchmark-only change
// that re-points those probes to CSC/CSR (ROADMAP I.3, M). Until then
// FuzzInferPathsAgree holds it bit-identical to CSC on every layer it draws.
type RadixKernel struct {
	plan   *StridePlan
	mat    *Matrix
	kern   *Kernel
	outDeg int // dNext·radix, uniform row out-degree
}

// NewRadixKernel binds a compiled stride plan to the matrix and CSC kernel
// it schedules. All three must be built on the identical Pattern the plan
// was verified against; mismatches are rejected rather than silently
// scrambling the value ordering. Its callers are radixbench's sparse.* probes
// and the tests that keep the kernel they time bit-identical to CSC.
func NewRadixKernel(m *Matrix, k *Kernel, plan *StridePlan) (*RadixKernel, error) {
	if m.pat != plan.src || k.src != plan.src {
		return nil, fmt.Errorf("sparse: radix kernel requires matrix, kernel and plan built on the identical pattern (%s)", plan)
	}
	if k.colDeg != plan.ColDegree() {
		return nil, fmt.Errorf("sparse: kernel column degree %d, plan implies %d", k.colDeg, plan.ColDegree())
	}
	return &RadixKernel{plan: plan, mat: m, kern: k, outDeg: plan.dNext * plan.radix}, nil
}

// Rows returns the input dimension.
func (rk *RadixKernel) Rows() int { return rk.plan.rows }

// Cols returns the output dimension.
func (rk *RadixKernel) Cols() int { return rk.plan.cols }

// FusedGatherRow computes one batch row of the fused feedforward step
// out[c] = min(cap, max(0, Σ_r in[r]·W[r,c] + bias)), returning the number
// of positive outputs — Kernel.FusedGatherRow with arithmetic addressing.
// It does not allocate.
//
//radix:hotpath
func (rk *RadixKernel) FusedGatherRow(out, in []float64, bias, cap float64) int {
	p := rk.plan
	in = in[:p.rows]
	out = out[:p.cols]
	vals := rk.kern.vals
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
//
//radix:hotpath
func (rk *RadixKernel) FusedGatherRow8(outs, ins *[8][]float64, bias, cap float64, nnz *[8]int) {
	p := rk.plan
	rows, cols := p.rows, p.cols
	in0, in1, in2, in3 := ins[0][:rows], ins[1][:rows], ins[2][:rows], ins[3][:rows]
	in4, in5, in6, in7 := ins[4][:rows], ins[5][:rows], ins[6][:rows], ins[7][:rows]
	out0, out1, out2, out3 := outs[0][:cols], outs[1][:cols], outs[2][:cols], outs[3][:cols]
	out4, out5, out6, out7 := outs[4][:cols], outs[5][:cols], outs[6][:cols], outs[7][:cols]
	vals := rk.kern.vals
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

// FusedScatterRow is the CSR dual with arithmetic addressing: the fused
// feedforward step computed by scattering each nonzero input activation
// across its out-edges, whose columns are generated from the plan instead of
// loaded from the pattern's index array. Accumulation visits input rows in
// ascending order, matching
// Matrix.FusedScatterRow bit-for-bit. It does not allocate.
func (rk *RadixKernel) FusedScatterRow(out, in []float64, bias, cap float64) int {
	p := rk.plan
	in = in[:p.rows]
	out = out[:p.cols]
	for c := range out {
		out[c] = 0
	}
	vals := rk.mat.vals
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
