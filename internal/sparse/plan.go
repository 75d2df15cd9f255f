package sparse

import (
	"errors"
	"fmt"
)

// ErrNotRadixStructured is returned by CompileStridePlan when a pattern is
// not the mixed-radix layer the given parameters describe.
var ErrNotRadixStructured = errors.New("sparse: pattern is not radix-structured")

// StridePlan is a compiled, index-free description of one RadiX-Net layer's
// sparsity: the Kronecker product Ones(dPrev,dNext) ⊗ Σ_n P^{n·pv} on np
// nodes (paper eq. 1–3). Because every in-edge of an output element is
// addressable by arithmetic — like an FFT butterfly stage — a kernel running
// a plan loads no row-index array at all.
//
// Writing an intra-block column cc = lo + t·pv with lo = cc mod pv and
// m = np/pv, the in-rows of cc are { lo + ((t−n) mod m)·pv : n < radix }:
// at most two ascending runs of stride pv (one when t ≥ radix−1, two when
// the circulant wraps). A plan stores only the six integers that generate
// those runs; compilation verifies the claimed structure edge-for-edge
// against the actual pattern, so a plan can never silently disagree with
// the matrix it schedules.
//
// No engine runs a plan. Its runtime half (colRuns, which RadixKernel reads)
// survives only for radixbench's sparse.* probes, until the benchmark-only
// change that re-points them to CSC/CSR (ROADMAP I.3, M).
type StridePlan struct {
	rows, cols   int
	np           int // N′: nodes per pre-lift layer
	pv           int // ν: the digit's place value (run stride)
	radix        int // N: the digit's radix (edges per block per column)
	dPrev, dNext int // dense-shape Kronecker block dimensions
	m            int // np/pv: the circulant modulus in t-space
	src          *Pattern
}

// CompileStridePlan compiles the mixed-radix layer parameters (np nodes,
// place value pv, radix, dense shape dPrev→dNext) into a stride plan,
// verifying against pat that the plan enumerates exactly the pattern's edge
// set. It returns ErrNotRadixStructured (wrapped) when the pattern differs
// from the structure the parameters imply. Tests use it to check core.Build
// against the paper's edge rule (TestConfigLayersFollowEdgeRule in
// internal/infer); radixbench's sparse.plan_compile_ms probe times it until
// ROADMAP I.3 re-points the sparse.* probes to CSC/CSR.
func CompileStridePlan(pat *Pattern, np, pv, radix, dPrev, dNext int) (*StridePlan, error) {
	if np < 1 || pv < 1 || radix < 1 || dPrev < 1 || dNext < 1 {
		return nil, fmt.Errorf("sparse: invalid stride-plan parameters np=%d pv=%d radix=%d shape %d→%d",
			np, pv, radix, dPrev, dNext)
	}
	if np%pv != 0 {
		return nil, fmt.Errorf("%w: place value %d does not divide N′=%d", ErrNotRadixStructured, pv, np)
	}
	m := np / pv
	if radix > m {
		// Shifts j·pv (j < radix) would collide modulo np, collapsing edges;
		// no mixed-radix system produces this (pv·radix divides N′).
		return nil, fmt.Errorf("%w: radix %d exceeds circulant modulus %d", ErrNotRadixStructured, radix, m)
	}
	p := &StridePlan{
		rows: dPrev * np, cols: dNext * np,
		np: np, pv: pv, radix: radix, dPrev: dPrev, dNext: dNext, m: m,
		src: pat,
	}
	if pat.rows != p.rows || pat.cols != p.cols {
		return nil, fmt.Errorf("%w: pattern is %dx%d, parameters imply %dx%d",
			ErrNotRadixStructured, pat.rows, pat.cols, p.rows, p.cols)
	}
	if pat.NNZ() != p.rows*dNext*radix {
		return nil, fmt.Errorf("%w: pattern has %d edges, structure implies %d",
			ErrNotRadixStructured, pat.NNZ(), p.rows*dNext*radix)
	}
	// Full structural verification: the plan's arithmetic enumeration must
	// reproduce the pattern row-for-row in CSR order. O(NNZ), once per
	// engine build.
	outDeg := dNext * radix
	for gr := 0; gr < p.rows; gr++ {
		row := pat.Row(gr)
		if len(row) != outDeg {
			return nil, fmt.Errorf("%w: row %d has %d edges, want %d", ErrNotRadixStructured, gr, len(row), outDeg)
		}
		i := 0
		ok := true
		p.RowOutCols(gr, func(c int) {
			if ok && row[i] != c {
				ok = false
			}
			i++
		})
		if !ok || i != outDeg {
			return nil, fmt.Errorf("%w: row %d deviates from the stride schedule", ErrNotRadixStructured, gr)
		}
	}
	return p, nil
}

// Rows returns the layer's input dimension dPrev·np.
func (p *StridePlan) Rows() int { return p.rows }

// Cols returns the layer's output dimension dNext·np.
func (p *StridePlan) Cols() int { return p.cols }

// NNZ returns the edge count the plan enumerates.
func (p *StridePlan) NNZ() int { return p.rows * p.dNext * p.radix }

// ColDegree returns the uniform in-degree dPrev·radix of every output
// column.
func (p *StridePlan) ColDegree() int { return p.dPrev * p.radix }

// colRuns decomposes intra-block column position t into the plan's at most
// two ascending t-space runs: [t1, t1+n1) then [t2, t2+n2) (n2 = 0 when the
// circulant does not wrap). Row offsets are lo + j·pv for j in each run.
func (p *StridePlan) colRuns(t int) (t1, n1, t2, n2 int) {
	if t >= p.radix-1 {
		return t - p.radix + 1, p.radix, 0, 0
	}
	// Wrapped: low fragment 0..t, then high fragment m-(radix-1-t)..m-1.
	wrap := p.radix - 1 - t
	return 0, t + 1, p.m - wrap, wrap
}

// ColInRows calls fn for every in-edge row of output column c in strictly
// ascending order — exactly the order the CSC kernel stores (and a gather
// accumulates) that column's entries. It is the plan's definition of the
// edge set, used by the property tests and the structural verification's
// dual.
func (p *StridePlan) ColInRows(c int, fn func(r int)) {
	cc := c % p.np
	lo := cc % p.pv
	t1, n1, t2, n2 := p.colRuns(cc / p.pv)
	for a := 0; a < p.dPrev; a++ {
		base := a*p.np + lo
		r := base + t1*p.pv
		for j := 0; j < n1; j++ {
			fn(r)
			r += p.pv
		}
		r = base + t2*p.pv
		for j := 0; j < n2; j++ {
			fn(r)
			r += p.pv
		}
	}
}

// RowOutCols calls fn for every out-edge column of input row r in strictly
// ascending order — the CSR dual of ColInRows. The out-runs of row position
// t are {(t+n) mod m : n < radix}: the mirror image of the in-runs.
func (p *StridePlan) RowOutCols(r int, fn func(c int)) {
	rr := r % p.np
	lo := rr % p.pv
	t := rr / p.pv
	// Ascending out-cols: wrapped fragment 0..t+radix-1-m first (if any),
	// then t..min(t+radix, m)-1.
	var w1, n1 int // wrapped fragment start/len
	n2 := p.radix
	if hi := t + p.radix - 1; hi >= p.m {
		n1 = hi - p.m + 1
		n2 = p.m - t
	}
	for b := 0; b < p.dNext; b++ {
		base := b*p.np + lo
		c := base + w1*p.pv
		for j := 0; j < n1; j++ {
			fn(c)
			c += p.pv
		}
		c = base + t*p.pv
		for j := 0; j < n2; j++ {
			fn(c)
			c += p.pv
		}
	}
}

// String summarizes the plan.
func (p *StridePlan) String() string {
	return fmt.Sprintf("StridePlan{N′=%d ν=%d radix=%d shape %d→%d}", p.np, p.pv, p.radix, p.dPrev, p.dNext)
}
