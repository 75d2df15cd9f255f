// Package dataset provides deterministic synthetic datasets for the
// training and inference experiments. The paper's deferred evaluation [15]
// used MNIST-class image data, which is unavailable offline; these
// generators exercise the identical code paths (multiclass classification
// through sparse vs dense layers, batched sparse inference) with seeded,
// reproducible data.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/radix-net/radixnet/internal/sparse"
)

// Dataset is a labeled classification dataset: one sample per row of X.
type Dataset struct {
	X       *sparse.Dense
	Labels  []int
	Classes int
}

// Split partitions the dataset into a training and test set at the given
// fraction, after a seeded shuffle.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %g out of (0,1)", trainFrac)
	}
	n := d.X.Rows()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(float64(n) * trainFrac)
	if nTrain < 1 || nTrain >= n {
		return nil, nil, errors.New("dataset: split leaves an empty side")
	}
	pick := func(idx []int) *Dataset {
		x, _ := sparse.NewDense(len(idx), d.X.Cols())
		labels := make([]int, len(idx))
		for i, j := range idx {
			copy(x.RowSlice(i), d.X.RowSlice(j))
			labels[i] = d.Labels[j]
		}
		return &Dataset{X: x, Labels: labels, Classes: d.Classes}
	}
	return pick(perm[:nTrain]), pick(perm[nTrain:]), nil
}

// Targets returns the one-hot encoding of the labels.
func (d *Dataset) Targets() (*sparse.Dense, error) {
	out, err := sparse.NewDense(len(d.Labels), d.Classes)
	if err != nil {
		return nil, err
	}
	for i, l := range d.Labels {
		if l < 0 || l >= d.Classes {
			return nil, fmt.Errorf("dataset: label %d out of range [0,%d)", l, d.Classes)
		}
		out.Set(i, l, 1)
	}
	return out, nil
}

// glyphs is a 5×7 bitmap font for the ten digits, the deterministic core of
// the procedural digit dataset.
var glyphs = [10][7]string{
	{"01110", "10001", "10011", "10101", "11001", "10001", "01110"}, // 0
	{"00100", "01100", "00100", "00100", "00100", "00100", "01110"}, // 1
	{"01110", "10001", "00001", "00110", "01000", "10000", "11111"}, // 2
	{"01110", "10001", "00001", "00110", "00001", "10001", "01110"}, // 3
	{"00010", "00110", "01010", "10010", "11111", "00010", "00010"}, // 4
	{"11111", "10000", "11110", "00001", "00001", "10001", "01110"}, // 5
	{"01110", "10000", "10000", "11110", "10001", "10001", "01110"}, // 6
	{"11111", "00001", "00010", "00100", "01000", "01000", "01000"}, // 7
	{"01110", "10001", "10001", "01110", "10001", "10001", "01110"}, // 8
	{"01110", "10001", "10001", "01111", "00001", "00001", "01110"}, // 9
}

// DigitSide is the side length of generated digit images.
const DigitSide = 16

// DigitFeatures is the flattened feature count of a digit image.
const DigitFeatures = DigitSide * DigitSide

// Digits renders n procedural digit images (16×16, flattened row-major,
// values in [0,1]) with random translation, per-pixel Gaussian noise and
// intensity jitter, labeled 0–9. It is this library's stand-in for MNIST:
// same task shape, deterministic for a fixed seed.
func Digits(n int, noise float64, seed int64) (*Dataset, error) {
	if n < 1 {
		return nil, errors.New("dataset: need at least one sample")
	}
	if noise < 0 {
		return nil, fmt.Errorf("dataset: noise %g must be non-negative", noise)
	}
	rng := rand.New(rand.NewSource(seed))
	x, err := sparse.NewDense(n, DigitFeatures)
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		digit := rng.Intn(10)
		labels[i] = digit
		row := x.RowSlice(i)
		// Base placement centers the 5×7 glyph in 16×16 with ±2 jitter and
		// a 2× integer scale.
		offR := 1 + rng.Intn(3) // glyph occupies 14 rows at scale 2
		offC := 2 + rng.Intn(3)
		intensity := 0.75 + 0.25*rng.Float64()
		for gr := 0; gr < 7; gr++ {
			for gc := 0; gc < 5; gc++ {
				if glyphs[digit][gr][gc] != '1' {
					continue
				}
				for dr := 0; dr < 2; dr++ {
					for dc := 0; dc < 2; dc++ {
						r := offR + gr*2 + dr
						c := offC + gc*2 + dc
						if r >= 0 && r < DigitSide && c >= 0 && c < DigitSide {
							row[r*DigitSide+c] = intensity
						}
					}
				}
			}
		}
		if noise > 0 {
			for j := range row {
				v := row[j] + rng.NormFloat64()*noise
				row[j] = math.Min(1, math.Max(0, v))
			}
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: 10}, nil
}

// Gaussians samples an isotropic Gaussian-mixture classification task:
// `classes` unit-variance blobs at random centers in [-1,1]^dim scaled by
// `spread`, n samples total with balanced classes.
func Gaussians(n, dim, classes int, spread float64, seed int64) (*Dataset, error) {
	if n < classes || dim < 1 || classes < 2 {
		return nil, fmt.Errorf("dataset: invalid gaussian task n=%d dim=%d classes=%d", n, dim, classes)
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for k := range centers {
		c := make([]float64, dim)
		for j := range c {
			c[j] = (rng.Float64()*2 - 1) * spread
		}
		centers[k] = c
	}
	x, err := sparse.NewDense(n, dim)
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % classes
		labels[i] = k
		row := x.RowSlice(i)
		for j := range row {
			row[j] = centers[k][j] + rng.NormFloat64()
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: classes}, nil
}

// SparseBatch generates a batch of mostly-zero activation rows for the
// inference engine: each of the n rows has exactly nnzPerRow entries set to
// values in (0, 1], at uniformly random positions — the shape of Graph
// Challenge input batches.
func SparseBatch(n, width, nnzPerRow int, seed int64) (*sparse.Dense, error) {
	if n < 1 || width < 1 || nnzPerRow < 1 || nnzPerRow > width {
		return nil, fmt.Errorf("dataset: invalid sparse batch n=%d width=%d nnz=%d", n, width, nnzPerRow)
	}
	rng := rand.New(rand.NewSource(seed))
	x, err := sparse.NewDense(n, width)
	if err != nil {
		return nil, err
	}
	perm := make([]int, width)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < n; i++ {
		row := x.RowSlice(i)
		for j := 0; j < nnzPerRow; j++ {
			k := j + rng.Intn(width-j)
			perm[j], perm[k] = perm[k], perm[j]
			row[perm[j]] = rng.Float64()*0.9 + 0.1
		}
	}
	return x, nil
}

// Func1D samples a scalar function on [0,1]: n points xi uniform (including
// the endpoints when n ≥ 2), targets f(xi). Used by the conjecture harness.
func Func1D(f func(float64) float64, n int) (x, y *sparse.Dense, err error) {
	if n < 2 {
		return nil, nil, errors.New("dataset: need at least two sample points")
	}
	x, err = sparse.NewDense(n, 1)
	if err != nil {
		return nil, nil, err
	}
	y, err = sparse.NewDense(n, 1)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		xi := float64(i) / float64(n-1)
		x.Set(i, 0, xi)
		y.Set(i, 0, f(xi))
	}
	return x, y, nil
}
