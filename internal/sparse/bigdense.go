package sparse

import (
	"fmt"
	"math/big"

	"github.com/radix-net/radixnet/internal/parallel"
)

// BigDense is a dense matrix of arbitrary-precision integers. It exists for
// one purpose: exact path counting. The number of paths between an input and
// an output of a RadiX-Net is m = (N′)^{M−1}·∏Di (Theorem 1), which
// overflows int64 for even modest configurations, so verifying symmetry
// demands exact big-integer arithmetic.
//
// Entries are stored as *big.Int and are never nil after construction.
type BigDense struct {
	rows, cols int
	data       []*big.Int // row-major
}

// NewBigDense returns a zeroed rows×cols big-integer matrix.
func NewBigDense(rows, cols int) (*BigDense, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("%w: %dx%d", ErrDims, rows, cols)
	}
	b := &BigDense{rows: rows, cols: cols, data: make([]*big.Int, rows*cols)}
	for i := range b.data {
		b.data[i] = new(big.Int)
	}
	return b, nil
}

// BigFromPattern returns the 0/1 big-integer matrix with ones exactly at the
// pattern's stored entries.
func BigFromPattern(p *Pattern) *BigDense {
	b, _ := NewBigDense(p.rows, p.cols)
	for r := 0; r < p.rows; r++ {
		for _, c := range p.Row(r) {
			b.data[r*p.cols+c].SetInt64(1)
		}
	}
	return b
}

// Rows returns the number of rows.
func (b *BigDense) Rows() int { return b.rows }

// Cols returns the number of columns.
func (b *BigDense) Cols() int { return b.cols }

// At returns element (r, c) as a shared *big.Int; callers must not mutate it.
func (b *BigDense) At(r, c int) *big.Int { return b.data[r*b.cols+c] }

// MulPattern returns b·p where p is a binary pattern: the exact propagation
// of path counts across one topology layer. Row blocks are processed in
// parallel; each output row touches only its own accumulators.
func (b *BigDense) MulPattern(p *Pattern) (*BigDense, error) {
	if b.cols != p.rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrDims, b.rows, b.cols, p.rows, p.cols)
	}
	out, _ := NewBigDense(b.rows, p.cols)
	parallel.BlocksGrain(b.rows, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			inRow := b.data[r*b.cols : (r+1)*b.cols]
			outRow := out.data[r*p.cols : (r+1)*p.cols]
			for k, v := range inRow {
				if v.Sign() == 0 {
					continue
				}
				for _, c := range p.Row(k) {
					outRow[c].Add(outRow[c], v)
				}
			}
		}
	})
	return out, nil
}

// AllEqual reports whether every element equals the same value, returning
// that common value when true. This is the symmetry criterion of §II: a
// topology is symmetric iff the product of its adjacency submatrices is
// m·1 for a positive integer m.
func (b *BigDense) AllEqual() (*big.Int, bool) {
	first := b.data[0]
	for _, v := range b.data[1:] {
		if v.Cmp(first) != 0 {
			return nil, false
		}
	}
	return new(big.Int).Set(first), true
}

// BigVec is a dense vector of arbitrary-precision integers, used by the
// streaming (per-source) path-counting strategy that avoids the O(rows·cols)
// memory of a full BigDense product.
type BigVec []*big.Int

// NewBigVec returns a zeroed length-n big-integer vector.
func NewBigVec(n int) BigVec {
	v := make(BigVec, n)
	for i := range v {
		v[i] = new(big.Int)
	}
	return v
}

// E returns the standard basis vector with a one at index i.
func E(n, i int) BigVec {
	v := NewBigVec(n)
	v[i].SetInt64(1)
	return v
}

// MulPattern returns vᵀ·p: one step of path-count propagation from a single
// source. len(v) must equal p.Rows().
func (v BigVec) MulPattern(p *Pattern) (BigVec, error) {
	if len(v) != p.rows {
		return nil, fmt.Errorf("%w: vec(%d) · %dx%d", ErrDims, len(v), p.rows, p.cols)
	}
	out := NewBigVec(p.cols)
	for r, x := range v {
		if x.Sign() == 0 {
			continue
		}
		for _, c := range p.Row(r) {
			out[c].Add(out[c], x)
		}
	}
	return out, nil
}

// AllEqual reports whether every element of the vector equals the same
// value, returning that value when true.
func (v BigVec) AllEqual() (*big.Int, bool) {
	first := v[0]
	for _, x := range v[1:] {
		if x.Cmp(first) != 0 {
			return nil, false
		}
	}
	return new(big.Int).Set(first), true
}
