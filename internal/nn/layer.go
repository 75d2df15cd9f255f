// Package nn is a from-scratch deep-learning substrate sufficient to train
// and evaluate the sparse topologies this library generates: dense and
// sparse linear layers, activations, losses, optimizers and a data-parallel
// trainer. The paper defers training evaluation to Alford & Kepner [15];
// this package is the substitute stack that makes those comparisons
// executable offline.
//
// Activations flow through *sparse.Dense batches (rows = samples). Sparse
// layers keep their weights in a value slice aligned with an immutable
// sparse.Pattern, so a RadiX-Net adjacency submatrix is used directly as a
// layer's connectivity without copying or masking.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/radix-net/radixnet/internal/parallel"
	"github.com/radix-net/radixnet/internal/sparse"
)

// ErrShape is returned when a batch does not conform to a layer.
var ErrShape = errors.New("nn: shape mismatch")

// Param is a view of one parameter tensor and its gradient accumulator.
// Optimizers update W in place using G; trainers zero G between steps.
type Param struct {
	W []float64
	G []float64
}

// Layer is one differentiable stage of a network. Forward consumes a batch
// and caches whatever it needs for the backward pass; Backward consumes the
// loss gradient w.r.t. its output, accumulates parameter gradients, and
// returns the gradient w.r.t. its input. Layers are stateful across a
// Forward/Backward pair and must not be shared between concurrent trainers;
// use CloneShared for data-parallel replicas that share weights but not
// activations or gradient buffers.
type Layer interface {
	Forward(x *sparse.Dense) (*sparse.Dense, error)
	Backward(dOut *sparse.Dense) (*sparse.Dense, error)
	Params() []Param
	CloneShared() Layer
	InSize() int
	OutSize() int
}

// DenseLinear is a fully-connected affine layer: out = x·W + b.
type DenseLinear struct {
	in, out int
	w       []float64 // in×out row-major
	b       []float64
	gw      []float64
	gb      []float64
	lastX   *sparse.Dense
}

// NewDenseLinear returns a dense layer with Glorot/Xavier-uniform weights
// drawn from rng and zero biases.
func NewDenseLinear(in, out int, rng *rand.Rand) (*DenseLinear, error) {
	if in < 1 || out < 1 {
		return nil, fmt.Errorf("%w: dense linear %dx%d", ErrShape, in, out)
	}
	l := &DenseLinear{
		in: in, out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.w {
		l.w[i] = (rng.Float64()*2 - 1) * limit
	}
	return l, nil
}

// InSize returns the input feature count.
func (l *DenseLinear) InSize() int { return l.in }

// OutSize returns the output feature count.
func (l *DenseLinear) OutSize() int { return l.out }

// NumParams returns the number of trainable scalars.
func (l *DenseLinear) NumParams() int { return len(l.w) + len(l.b) }

// Forward computes x·W + b.
func (l *DenseLinear) Forward(x *sparse.Dense) (*sparse.Dense, error) {
	if x.Cols() != l.in {
		return nil, fmt.Errorf("%w: batch has %d features, layer expects %d", ErrShape, x.Cols(), l.in)
	}
	l.lastX = x
	out, _ := sparse.NewDense(x.Rows(), l.out)
	parallel.BlocksGrain(x.Rows(), 4, func(lo, hi int) {
		for bIdx := lo; bIdx < hi; bIdx++ {
			xRow := x.RowSlice(bIdx)
			outRow := out.RowSlice(bIdx)
			copy(outRow, l.b)
			for r, xv := range xRow {
				if xv == 0 {
					continue
				}
				wRow := l.w[r*l.out : (r+1)*l.out]
				for c, wv := range wRow {
					outRow[c] += xv * wv
				}
			}
		}
	})
	return out, nil
}

// Backward accumulates dW = xᵀ·dOut and db = Σ dOut, and returns
// dX = dOut·Wᵀ.
func (l *DenseLinear) Backward(dOut *sparse.Dense) (*sparse.Dense, error) {
	x := l.lastX
	if x == nil {
		return nil, errors.New("nn: Backward before Forward")
	}
	if dOut.Rows() != x.Rows() || dOut.Cols() != l.out {
		return nil, fmt.Errorf("%w: gradient is %dx%d, want %dx%d", ErrShape, dOut.Rows(), dOut.Cols(), x.Rows(), l.out)
	}
	dX, _ := sparse.NewDense(x.Rows(), l.in)
	for bIdx := 0; bIdx < x.Rows(); bIdx++ {
		xRow := x.RowSlice(bIdx)
		gRow := dOut.RowSlice(bIdx)
		dxRow := dX.RowSlice(bIdx)
		for c, gv := range gRow {
			l.gb[c] += gv
		}
		for r, xv := range xRow {
			wRow := l.w[r*l.out : (r+1)*l.out]
			gwRow := l.gw[r*l.out : (r+1)*l.out]
			var acc float64
			for c, gv := range gRow {
				if xv != 0 {
					gwRow[c] += xv * gv
				}
				acc += wRow[c] * gv
			}
			dxRow[r] = acc
		}
	}
	return dX, nil
}

// Params exposes the weight and bias tensors.
func (l *DenseLinear) Params() []Param {
	return []Param{{W: l.w, G: l.gw}, {W: l.b, G: l.gb}}
}

// CloneShared returns a replica sharing weight storage with fresh gradient
// buffers and activation caches, for data-parallel workers.
func (l *DenseLinear) CloneShared() Layer {
	return &DenseLinear{
		in: l.in, out: l.out,
		w: l.w, b: l.b,
		gw: make([]float64, len(l.gw)),
		gb: make([]float64, len(l.gb)),
	}
}

// SparseLinear is an affine layer whose connectivity is a fixed sparsity
// pattern: out = x·W + b with W supported only on pattern entries. The
// pattern rows index inputs and columns index outputs, exactly matching the
// orientation of RadiX-Net adjacency submatrices.
type SparseLinear struct {
	pat   *sparse.Pattern
	w     []float64 // aligned with pat's stored entries
	b     []float64
	gw    []float64
	gb    []float64
	lastX *sparse.Dense
	mat   *sparse.Matrix // pat + w, shared storage; built once
	kern  *sparse.Kernel // CSC gather form; values resynced each Forward
}

// NewSparseLinear returns a sparse layer on the given pattern with
// fan-in-scaled He/Xavier-style initialization: each weight is uniform in
// ±sqrt(6/(fanIn+fanOut)) where the fans are the pattern's mean degrees —
// the standard adaptation for sparse layers, keeping activation variance
// comparable to dense layers of the same density.
func NewSparseLinear(pat *sparse.Pattern, rng *rand.Rand) *SparseLinear {
	l := &SparseLinear{
		pat: pat,
		w:   make([]float64, pat.NNZ()),
		b:   make([]float64, pat.Cols()),
		gw:  make([]float64, pat.NNZ()),
		gb:  make([]float64, pat.Cols()),
	}
	fanIn := float64(pat.NNZ()) / float64(pat.Cols())
	fanOut := float64(pat.NNZ()) / float64(pat.Rows())
	limit := math.Sqrt(6.0 / (fanIn + fanOut))
	for i := range l.w {
		l.w[i] = (rng.Float64()*2 - 1) * limit
	}
	l.mat, _ = sparse.NewMatrix(pat, l.w)
	return l
}

// Pattern returns the layer's immutable connectivity.
func (l *SparseLinear) Pattern() *sparse.Pattern { return l.pat }

// InSize returns the input feature count.
func (l *SparseLinear) InSize() int { return l.pat.Rows() }

// OutSize returns the output feature count.
func (l *SparseLinear) OutSize() int { return l.pat.Cols() }

// NumParams returns the number of trainable scalars (stored weights plus
// biases) — the storage-cost figure sparse-vs-dense comparisons report.
func (l *SparseLinear) NumParams() int { return len(l.w) + len(l.b) }

// Forward computes x·W + b over the stored entries only, as a single fused
// CSC gather pass per batch row (see sparse.Kernel): no intermediate
// product matrix, no second bias pass. The kernel's value copy is resynced
// from the live weights on every call, since optimizers mutate them between
// forward passes.
func (l *SparseLinear) Forward(x *sparse.Dense) (*sparse.Dense, error) {
	if x.Cols() != l.pat.Rows() {
		return nil, fmt.Errorf("%w: batch has %d features, layer expects %d", ErrShape, x.Cols(), l.pat.Rows())
	}
	l.lastX = x
	out, _ := sparse.NewDense(x.Rows(), l.pat.Cols())
	if l.kern == nil {
		k, err := sparse.NewKernel(l.mat)
		if err != nil {
			return nil, fmt.Errorf("nn: %w", err)
		}
		l.kern = k
	} else if err := l.kern.Refresh(l.mat); err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	parallel.BlocksGrain(x.Rows(), 1, func(lo, hi int) {
		for bIdx := lo; bIdx < hi; bIdx++ {
			l.kern.AffineGatherRow(out.RowSlice(bIdx), x.RowSlice(bIdx), l.b)
		}
	})
	return out, nil
}

// Backward accumulates gradients on stored entries only and returns dX.
func (l *SparseLinear) Backward(dOut *sparse.Dense) (*sparse.Dense, error) {
	x := l.lastX
	if x == nil {
		return nil, errors.New("nn: Backward before Forward")
	}
	if dOut.Rows() != x.Rows() || dOut.Cols() != l.pat.Cols() {
		return nil, fmt.Errorf("%w: gradient is %dx%d, want %dx%d", ErrShape, dOut.Rows(), dOut.Cols(), x.Rows(), l.pat.Cols())
	}
	dX, _ := sparse.NewDense(x.Rows(), l.pat.Rows())
	for bIdx := 0; bIdx < x.Rows(); bIdx++ {
		xRow := x.RowSlice(bIdx)
		gRow := dOut.RowSlice(bIdx)
		dxRow := dX.RowSlice(bIdx)
		for c, gv := range gRow {
			l.gb[c] += gv
		}
		for r := 0; r < l.pat.Rows(); r++ {
			xv := xRow[r]
			lo, row := l.rowSpan(r)
			var acc float64
			for i, c := range row {
				gv := gRow[c]
				if xv != 0 {
					l.gw[lo+i] += xv * gv
				}
				acc += l.w[lo+i] * gv
			}
			dxRow[r] = acc
		}
	}
	return dX, nil
}

// rowSpan returns the offset of row r's entries within the aligned slices
// and the row's column indices.
func (l *SparseLinear) rowSpan(r int) (int, []int) {
	row := l.pat.Row(r)
	// The pattern's Row is a subslice of its colIdx; recover the offset by
	// counting entries before row r.
	lo := l.pat.RowOffset(r)
	return lo, row
}

// Params exposes the weight and bias tensors.
func (l *SparseLinear) Params() []Param {
	return []Param{{W: l.w, G: l.gw}, {W: l.b, G: l.gb}}
}

// CloneShared returns a replica sharing weights with fresh gradient
// buffers. The CSC kernel is per-replica (each Forward refreshes its value
// copy, which must not race across workers); it is rebuilt lazily.
func (l *SparseLinear) CloneShared() Layer {
	return &SparseLinear{
		pat: l.pat,
		w:   l.w, b: l.b,
		gw:  make([]float64, len(l.gw)),
		gb:  make([]float64, len(l.gb)),
		mat: l.mat,
	}
}
