// Package sparse implements the sparse-matrix substrate on which all
// RadiX-Net topology algebra is built: binary sparsity patterns in CSR form,
// float64-valued CSR matrices, dense matrices, exact big-integer matrices
// for path counting, Kronecker products, and serial/parallel multiplication
// kernels.
//
// The central type is Pattern, a structure-only CSR matrix. The paper's
// topologies are adjacency submatrices whose "only nonzero entries are ones"
// (§II), so representing structure without values keeps every graph
// operation exact and allocation-lean; numeric weights are layered on top by
// Matrix and by the training substrate.
package sparse

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/radix-net/radixnet/internal/parallel"
)

// ErrDims is returned when matrix dimensions are non-positive or do not
// conform for the requested operation.
var ErrDims = errors.New("sparse: dimension mismatch")

// Pattern is an immutable binary sparsity pattern in compressed sparse row
// (CSR) form. Column indices within each row are strictly increasing.
// A Pattern with zero stored entries is valid. It is handled by pointer only:
// layers with the same structure hold the same *Pattern (core.Build hands them
// out that way), and everything derived from the structure alone — the CSC
// transposition every Kernel on the pattern reads — is built once, here.
type Pattern struct {
	rows, cols int
	rowPtr     []int // len rows+1; rowPtr[r]..rowPtr[r+1] indexes colIdx
	colIdx     []int // len NNZ; sorted and unique within each row

	cscOnce sync.Once
	csc     *cscStructure // see transposed; nil until a Kernel asks
}

// NewPattern builds a Pattern from per-row column lists. Each row slice may
// be unsorted and may contain duplicates; duplicates collapse to a single
// stored entry. It errors on out-of-range column indices or non-positive
// dimensions.
func NewPattern(rows, cols int, rowCols [][]int) (*Pattern, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("%w: %dx%d", ErrDims, rows, cols)
	}
	if len(rowCols) != rows {
		return nil, fmt.Errorf("sparse: got %d row lists for %d rows", len(rowCols), rows)
	}
	p := &Pattern{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	nnz := 0
	for _, cs := range rowCols {
		nnz += len(cs)
	}
	p.colIdx = make([]int, 0, nnz)
	for r, cs := range rowCols {
		sorted := append([]int(nil), cs...)
		sort.Ints(sorted)
		prev := -1
		for _, c := range sorted {
			if c < 0 || c >= cols {
				return nil, fmt.Errorf("sparse: column %d out of range [0,%d) in row %d", c, cols, r)
			}
			if c == prev {
				continue
			}
			p.colIdx = append(p.colIdx, c)
			prev = c
		}
		p.rowPtr[r+1] = len(p.colIdx)
	}
	return p, nil
}

// Identity returns the n×n identity pattern.
func Identity(n int) *Pattern {
	p := &Pattern{rows: n, cols: n, rowPtr: make([]int, n+1), colIdx: make([]int, n)}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] = i + 1
		p.colIdx[i] = i
	}
	return p
}

// Ones returns the fully dense rows×cols pattern — the adjacency submatrix
// W* of one layer of the paper's dense "shape" DNN H (eq. 3).
func Ones(rows, cols int) *Pattern {
	p := &Pattern{rows: rows, cols: cols, rowPtr: make([]int, rows+1), colIdx: make([]int, rows*cols)}
	for r := 0; r < rows; r++ {
		p.rowPtr[r+1] = (r + 1) * cols
		for c := 0; c < cols; c++ {
			p.colIdx[r*cols+c] = c
		}
	}
	return p
}

// CyclicShift returns the n×n permutation pattern P^s in the orientation
// used by this library: entry (r, c) is set iff c ≡ r+s (mod n). With s=1
// this is the transpose of the paper's eq. (2) matrix: the stated edge rule
// j → j+n·ν requires this orientation (erratum E-a; the two are isomorphic,
// see topology.TestErratumEaOrientationsIsomorphic). Negative shifts are
// taken modulo n, so CyclicShift(n, -1) reproduces the paper's eq. (2)
// literally.
func CyclicShift(n, s int) *Pattern {
	s = ((s % n) + n) % n
	p := &Pattern{rows: n, cols: n, rowPtr: make([]int, n+1), colIdx: make([]int, n)}
	for r := 0; r < n; r++ {
		p.rowPtr[r+1] = r + 1
		p.colIdx[r] = (r + s) % n
	}
	return p
}

// SumOfShifts returns Σ_s P^s over the given shift offsets on n nodes:
// entry (r, c) is set iff c ≡ r+s (mod n) for some s in shifts. This is the
// direct form of the paper's eq. (1), Wi = Σ_n P^{n·νi}. Duplicate offsets
// (mod n) collapse.
func SumOfShifts(n int, shifts []int) *Pattern {
	norm := make([]int, 0, len(shifts))
	seen := make(map[int]bool, len(shifts))
	for _, s := range shifts {
		v := ((s % n) + n) % n
		if !seen[v] {
			seen[v] = true
			norm = append(norm, v)
		}
	}
	sort.Ints(norm)
	k := len(norm)
	p := &Pattern{rows: n, cols: n, rowPtr: make([]int, n+1), colIdx: make([]int, n*k)}
	cols := make([]int, k)
	for r := 0; r < n; r++ {
		for i, s := range norm {
			cols[i] = (r + s) % n
		}
		sort.Ints(cols)
		copy(p.colIdx[r*k:], cols)
		p.rowPtr[r+1] = (r + 1) * k
	}
	return p
}

// Rows returns the number of rows.
func (p *Pattern) Rows() int { return p.rows }

// Cols returns the number of columns.
func (p *Pattern) Cols() int { return p.cols }

// NNZ returns the number of stored entries.
func (p *Pattern) NNZ() int { return len(p.colIdx) }

// Row returns the sorted column indices of row r as a shared view.
// Callers must not mutate the returned slice.
func (p *Pattern) Row(r int) []int { return p.colIdx[p.rowPtr[r]:p.rowPtr[r+1]] }

// RowOffset returns the index within the stored-entry order at which row
// r's entries begin. Value slices aligned with a pattern (e.g. sparse layer
// weights) use it to locate the storage of entry (r, c).
func (p *Pattern) RowOffset(r int) int { return p.rowPtr[r] }

// Has reports whether entry (r, c) is set, by binary search within the row.
func (p *Pattern) Has(r, c int) bool {
	row := p.Row(r)
	i := sort.SearchInts(row, c)
	return i < len(row) && row[i] == c
}

// RowDegree returns the number of entries in row r (the out-degree of node r
// when the pattern is an adjacency submatrix).
func (p *Pattern) RowDegree(r int) int { return p.rowPtr[r+1] - p.rowPtr[r] }

// ColDegrees returns the per-column entry counts (in-degrees).
func (p *Pattern) ColDegrees() []int {
	deg := make([]int, p.cols)
	for _, c := range p.colIdx {
		deg[c]++
	}
	return deg
}

// HasZeroRow reports whether some row stores no entries. An FNNT adjacency
// submatrix with a zero row violates the out-degree condition of §II.
func (p *Pattern) HasZeroRow() bool {
	for r := 0; r < p.rows; r++ {
		if p.rowPtr[r] == p.rowPtr[r+1] {
			return true
		}
	}
	return false
}

// HasZeroCol reports whether some column stores no entries. The paper's
// converse FNNT construction requires that "no column of Wi is the zero
// vector" (§II).
func (p *Pattern) HasZeroCol() bool {
	for _, d := range p.ColDegrees() {
		if d == 0 {
			return true
		}
	}
	return false
}

// Equal reports whether two patterns have identical shape and structure.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.rows != q.rows || p.cols != q.cols || len(p.colIdx) != len(q.colIdx) {
		return false
	}
	for i, v := range p.rowPtr {
		if q.rowPtr[i] != v {
			return false
		}
	}
	for i, v := range p.colIdx {
		if q.colIdx[i] != v {
			return false
		}
	}
	return true
}

// Transpose returns the transposed pattern.
func (p *Pattern) Transpose() *Pattern {
	t := &Pattern{rows: p.cols, cols: p.rows, rowPtr: make([]int, p.cols+1), colIdx: make([]int, len(p.colIdx))}
	for _, c := range p.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < p.cols; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := append([]int(nil), t.rowPtr[:p.cols]...)
	for r := 0; r < p.rows; r++ {
		for _, c := range p.Row(r) {
			t.colIdx[next[c]] = r
			next[c]++
		}
	}
	return t
}

// Union returns the entrywise boolean OR of two equally-shaped patterns.
func (p *Pattern) Union(q *Pattern) (*Pattern, error) {
	if p.rows != q.rows || p.cols != q.cols {
		return nil, fmt.Errorf("%w: union of %dx%d and %dx%d", ErrDims, p.rows, p.cols, q.rows, q.cols)
	}
	u := &Pattern{rows: p.rows, cols: p.cols, rowPtr: make([]int, p.rows+1)}
	u.colIdx = make([]int, 0, len(p.colIdx)+len(q.colIdx))
	for r := 0; r < p.rows; r++ {
		a, b := p.Row(r), q.Row(r)
		i, j := 0, 0
		for i < len(a) || j < len(b) {
			switch {
			case j >= len(b) || (i < len(a) && a[i] < b[j]):
				u.colIdx = append(u.colIdx, a[i])
				i++
			case i >= len(a) || b[j] < a[i]:
				u.colIdx = append(u.colIdx, b[j])
				j++
			default:
				u.colIdx = append(u.colIdx, a[i])
				i++
				j++
			}
		}
		u.rowPtr[r+1] = len(u.colIdx)
	}
	return u, nil
}

// Intersect returns the entrywise boolean AND of two equally-shaped
// patterns — the shared edges of two topologies, used to quantify how much
// of a random baseline's wiring a RadiX-Net happens to reproduce.
func (p *Pattern) Intersect(q *Pattern) (*Pattern, error) {
	if p.rows != q.rows || p.cols != q.cols {
		return nil, fmt.Errorf("%w: intersect of %dx%d and %dx%d", ErrDims, p.rows, p.cols, q.rows, q.cols)
	}
	out := &Pattern{rows: p.rows, cols: p.cols, rowPtr: make([]int, p.rows+1)}
	for r := 0; r < p.rows; r++ {
		a, b := p.Row(r), q.Row(r)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case b[j] < a[i]:
				j++
			default:
				out.colIdx = append(out.colIdx, a[i])
				i++
				j++
			}
		}
		out.rowPtr[r+1] = len(out.colIdx)
	}
	return out, nil
}

// Jaccard returns the Jaccard similarity |p∩q| / |p∪q| of two patterns'
// edge sets, a scalar overlap measure in [0, 1].
func (p *Pattern) Jaccard(q *Pattern) (float64, error) {
	inter, err := p.Intersect(q)
	if err != nil {
		return 0, err
	}
	union := p.NNZ() + q.NNZ() - inter.NNZ()
	if union == 0 {
		return 1, nil // two empty patterns are identical
	}
	return float64(inter.NNZ()) / float64(union), nil
}

// Mul returns the boolean matrix product p·q: entry (r, c) is set iff there
// is some k with p(r,k) and q(k,c). Rows of the result are computed in
// parallel when profitable. This is graph composition: paths of length two
// through the intermediate index.
func (p *Pattern) Mul(q *Pattern) (*Pattern, error) {
	if p.cols != q.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrDims, p.rows, p.cols, q.rows, q.cols)
	}
	rowsOut := make([][]int, p.rows)
	parallel.BlocksGrain(p.rows, 16, func(lo, hi int) {
		mark := make([]bool, q.cols)
		touched := make([]int, 0, 64)
		for r := lo; r < hi; r++ {
			touched = touched[:0]
			for _, k := range p.Row(r) {
				for _, c := range q.Row(k) {
					if !mark[c] {
						mark[c] = true
						touched = append(touched, c)
					}
				}
			}
			row := append([]int(nil), touched...)
			sort.Ints(row)
			rowsOut[r] = row
			for _, c := range touched {
				mark[c] = false
			}
		}
	})
	out := &Pattern{rows: p.rows, cols: q.cols, rowPtr: make([]int, p.rows+1)}
	nnz := 0
	for _, row := range rowsOut {
		nnz += len(row)
	}
	out.colIdx = make([]int, 0, nnz)
	for r, row := range rowsOut {
		out.colIdx = append(out.colIdx, row...)
		out.rowPtr[r+1] = len(out.colIdx)
	}
	return out, nil
}

// Kron returns the Kronecker product p ⊗ q: a (p.rows·q.rows)×(p.cols·q.cols)
// pattern where block (i, j) equals q whenever p(i, j) is set. This is the
// final step of RadiX-Net construction, eq. (3) of the paper. Row blocks are
// filled in parallel when profitable.
func (p *Pattern) Kron(q *Pattern) *Pattern {
	rows := p.rows * q.rows
	cols := p.cols * q.cols
	out := &Pattern{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	// Row r = i*q.rows + s has RowDegree(p, i) * RowDegree(q, s) entries:
	// for each c in p.Row(i) and t in q.Row(s), column c*q.cols + t.
	for i := 0; i < p.rows; i++ {
		dp := p.RowDegree(i)
		for s := 0; s < q.rows; s++ {
			r := i*q.rows + s
			out.rowPtr[r+1] = out.rowPtr[r] + dp*q.RowDegree(s)
		}
	}
	out.colIdx = make([]int, out.rowPtr[rows])
	parallel.BlocksGrain(p.rows, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pRow := p.Row(i)
			for s := 0; s < q.rows; s++ {
				r := i*q.rows + s
				w := out.rowPtr[r]
				for _, c := range pRow {
					base := c * q.cols
					for _, t := range q.Row(s) {
						out.colIdx[w] = base + t
						w++
					}
				}
			}
		}
	})
	return out
}

// DenseBool materializes the pattern as a row-major boolean matrix.
// Intended for small matrices in tests and examples.
func (p *Pattern) DenseBool() [][]bool {
	out := make([][]bool, p.rows)
	for r := range out {
		out[r] = make([]bool, p.cols)
		for _, c := range p.Row(r) {
			out[r][c] = true
		}
	}
	return out
}

// String renders small patterns as a 0/1 grid; larger ones as a summary.
func (p *Pattern) String() string {
	if p.rows*p.cols > 4096 {
		return fmt.Sprintf("Pattern{%dx%d, nnz=%d}", p.rows, p.cols, p.NNZ())
	}
	var b strings.Builder
	for r := 0; r < p.rows; r++ {
		row := p.Row(r)
		j := 0
		for c := 0; c < p.cols; c++ {
			if j < len(row) && row[j] == c {
				b.WriteByte('1')
				j++
			} else {
				b.WriteByte('.')
			}
			if c+1 < p.cols {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Density returns NNZ / (rows·cols).
func (p *Pattern) Density() float64 {
	return float64(p.NNZ()) / (float64(p.rows) * float64(p.cols))
}
