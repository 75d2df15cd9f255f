package sparse

import (
	"fmt"
	"sort"

	"github.com/radix-net/radixnet/internal/parallel"
)

// Matrix is a float64-valued CSR sparse matrix. Its structure is a Pattern;
// values are stored in a slice aligned with the pattern's column indices.
// Matrix is the numeric workhorse for sparse inference (Y ← ReLU(Y·W + b))
// and for weighted topology algebra.
type Matrix struct {
	pat  *Pattern
	vals []float64 // len == pat.NNZ(), aligned with pat.colIdx
	// shared: vals is a run of one constant that other matrices and kernels
	// also read (ConstantMatrices). Nothing writes it; Values and Scale copy
	// it first.
	shared bool
}

// NewMatrix pairs a pattern with a value slice of matching length.
// The slices are shared, not copied.
func NewMatrix(pat *Pattern, vals []float64) (*Matrix, error) {
	if len(vals) != pat.NNZ() {
		return nil, fmt.Errorf("sparse: %d values for pattern with nnz=%d", len(vals), pat.NNZ())
	}
	return &Matrix{pat: pat, vals: vals}, nil
}

// ConstantMatrices returns one matrix per pattern with every stored entry set
// to v — the Graph Challenge convention of one weight for every edge of every
// layer. They all read one run of v as long as the largest pattern, and so do
// the kernels built on them: one value in every position is the same stream in
// CSR or CSC order, so a constant stack stores its weights once.
// Writing is copy-on-write per matrix: see Values.
func ConstantMatrices(pats []*Pattern, v float64) []*Matrix {
	n := 0
	for _, p := range pats {
		n = max(n, p.NNZ())
	}
	run := make([]float64, n)
	for i := range run {
		run[i] = v
	}
	ms := make([]*Matrix, len(pats))
	for i, p := range pats {
		ms[i] = &Matrix{pat: p, vals: run[:p.NNZ():p.NNZ()], shared: true}
	}
	return ms
}

// MatrixFromPattern returns a matrix with every stored entry set to v.
func MatrixFromPattern(pat *Pattern, v float64) *Matrix {
	return ConstantMatrices([]*Pattern{pat}, v)[0]
}

// Pattern returns the structure of the matrix (shared, immutable).
func (m *Matrix) Pattern() *Pattern { return m.pat }

// Values returns the value slice as a view aligned with the pattern's column
// indices, for reading or writing: the matrix owns it from here on. On a
// matrix that was reading a shared constant run this is the copy-on-write
// point — this matrix gets its own copy, no other does — so it is not safe to
// call concurrently with anything else that uses the matrix, and kernels built
// on it keep the old values until their Refresh (as after any mutation).
func (m *Matrix) Values() []float64 {
	if m.shared {
		m.vals, m.shared = append([]float64(nil), m.vals...), false
	}
	return m.vals
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.pat.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.pat.cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.vals) }

// At returns element (r, c), zero when the entry is not stored.
func (m *Matrix) At(r, c int) float64 {
	row := m.pat.Row(r)
	i := sort.SearchInts(row, c)
	if i < len(row) && row[i] == c {
		return m.vals[m.pat.rowPtr[r]+i]
	}
	return 0
}

// RowEntries passes each stored entry (c, v) of row r to fn in column order.
func (m *Matrix) RowEntries(r int, fn func(c int, v float64)) {
	lo, hi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
	for i := lo; i < hi; i++ {
		fn(m.pat.colIdx[i], m.vals[i])
	}
}

// Scale multiplies every stored value by a.
func (m *Matrix) Scale(a float64) {
	vals := m.Values()
	for i := range vals {
		vals[i] *= a
	}
}

// VecMul returns xᵀ·m for a dense vector x of length Rows(); this is the
// row-activation form Y·W used by the feedforward inference engine.
func (m *Matrix) VecMul(x []float64) ([]float64, error) {
	if len(x) != m.pat.rows {
		return nil, fmt.Errorf("%w: vec(%d) · %dx%d", ErrDims, len(x), m.pat.rows, m.pat.cols)
	}
	y := make([]float64, m.pat.cols)
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		lo, hi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
		for i := lo; i < hi; i++ {
			y[m.pat.colIdx[i]] += xv * m.vals[i]
		}
	}
	return y, nil
}

// DenseMul returns X·m where X is dense (batch×Rows()): the batched
// feedforward step. Rows of X are processed in parallel.
func (m *Matrix) DenseMul(x *Dense) (*Dense, error) {
	if x.cols != m.pat.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrDims, x.rows, x.cols, m.pat.rows, m.pat.cols)
	}
	out := &Dense{rows: x.rows, cols: m.pat.cols, data: make([]float64, x.rows*m.pat.cols)}
	parallel.BlocksGrain(x.rows, 4, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			xRow := x.data[b*x.cols : (b+1)*x.cols]
			outRow := out.data[b*m.pat.cols : (b+1)*m.pat.cols]
			for r, xv := range xRow {
				if xv == 0 {
					continue
				}
				plo, phi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
				for i := plo; i < phi; i++ {
					outRow[m.pat.colIdx[i]] += xv * m.vals[i]
				}
			}
		}
	})
	return out, nil
}

// Mul returns the sparse-sparse product m·o (SpGEMM) with numeric
// accumulation, computed row-by-row with a dense scratch accumulator,
// parallelized over row blocks.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.pat.cols != o.pat.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrDims, m.pat.rows, m.pat.cols, o.pat.rows, o.pat.cols)
	}
	type rowResult struct {
		cols []int
		vals []float64
	}
	results := make([]rowResult, m.pat.rows)
	parallel.BlocksGrain(m.pat.rows, 8, func(lo, hi int) {
		acc := make([]float64, o.pat.cols)
		mark := make([]bool, o.pat.cols)
		touched := make([]int, 0, 64)
		for r := lo; r < hi; r++ {
			touched = touched[:0]
			mlo, mhi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
			for i := mlo; i < mhi; i++ {
				k := m.pat.colIdx[i]
				mv := m.vals[i]
				olo, ohi := o.pat.rowPtr[k], o.pat.rowPtr[k+1]
				for j := olo; j < ohi; j++ {
					c := o.pat.colIdx[j]
					if !mark[c] {
						mark[c] = true
						touched = append(touched, c)
					}
					acc[c] += mv * o.vals[j]
				}
			}
			cols := append([]int(nil), touched...)
			sort.Ints(cols)
			vals := make([]float64, len(cols))
			for i, c := range cols {
				vals[i] = acc[c]
				acc[c] = 0
				mark[c] = false
			}
			results[r] = rowResult{cols: cols, vals: vals}
		}
	})
	pat := &Pattern{rows: m.pat.rows, cols: o.pat.cols, rowPtr: make([]int, m.pat.rows+1)}
	nnz := 0
	for _, res := range results {
		nnz += len(res.cols)
	}
	pat.colIdx = make([]int, 0, nnz)
	vals := make([]float64, 0, nnz)
	for r, res := range results {
		pat.colIdx = append(pat.colIdx, res.cols...)
		vals = append(vals, res.vals...)
		pat.rowPtr[r+1] = len(pat.colIdx)
	}
	return &Matrix{pat: pat, vals: vals}, nil
}

// Transpose returns the transposed matrix with values carried along.
func (m *Matrix) Transpose() *Matrix {
	tp := m.pat.Transpose()
	vals := make([]float64, len(m.vals))
	next := make([]int, tp.rows)
	for r := 0; r < tp.rows; r++ {
		next[r] = tp.rowPtr[r]
	}
	for r := 0; r < m.pat.rows; r++ {
		lo, hi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
		for i := lo; i < hi; i++ {
			c := m.pat.colIdx[i]
			vals[next[c]] = m.vals[i]
			next[c]++
		}
	}
	return &Matrix{pat: tp, vals: vals}
}

// Add returns m + o with the union structure. Both operands keep their
// sparsity; entries present in both are summed.
func (m *Matrix) Add(o *Matrix) (*Matrix, error) {
	if m.pat.rows != o.pat.rows || m.pat.cols != o.pat.cols {
		return nil, fmt.Errorf("%w: add %dx%d + %dx%d", ErrDims, m.pat.rows, m.pat.cols, o.pat.rows, o.pat.cols)
	}
	pat := &Pattern{rows: m.pat.rows, cols: m.pat.cols, rowPtr: make([]int, m.pat.rows+1)}
	var vals []float64
	for r := 0; r < m.pat.rows; r++ {
		aLo, aHi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
		bLo, bHi := o.pat.rowPtr[r], o.pat.rowPtr[r+1]
		i, j := aLo, bLo
		for i < aHi || j < bHi {
			switch {
			case j >= bHi || (i < aHi && m.pat.colIdx[i] < o.pat.colIdx[j]):
				pat.colIdx = append(pat.colIdx, m.pat.colIdx[i])
				vals = append(vals, m.vals[i])
				i++
			case i >= aHi || o.pat.colIdx[j] < m.pat.colIdx[i]:
				pat.colIdx = append(pat.colIdx, o.pat.colIdx[j])
				vals = append(vals, o.vals[j])
				j++
			default:
				pat.colIdx = append(pat.colIdx, m.pat.colIdx[i])
				vals = append(vals, m.vals[i]+o.vals[j])
				i++
				j++
			}
		}
		pat.rowPtr[r+1] = len(pat.colIdx)
	}
	return &Matrix{pat: pat, vals: vals}, nil
}

// ToDense materializes the matrix densely. Intended for small matrices in
// tests and reference comparisons.
func (m *Matrix) ToDense() *Dense {
	out := &Dense{rows: m.pat.rows, cols: m.pat.cols, data: make([]float64, m.pat.rows*m.pat.cols)}
	for r := 0; r < m.pat.rows; r++ {
		lo, hi := m.pat.rowPtr[r], m.pat.rowPtr[r+1]
		for i := lo; i < hi; i++ {
			out.data[r*m.pat.cols+m.pat.colIdx[i]] = m.vals[i]
		}
	}
	return out
}
