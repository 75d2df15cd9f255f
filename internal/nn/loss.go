package nn

import (
	"fmt"
	"math"

	"github.com/radix-net/radixnet/internal/sparse"
)

// Loss maps a prediction batch and a target batch to a scalar mean loss and
// the gradient of that mean loss with respect to the predictions.
type Loss interface {
	Loss(pred, target *sparse.Dense) (float64, *sparse.Dense, error)
}

// MSE is the mean squared error ½‖pred−target‖²/batch, the regression loss
// used by the conjecture experiments.
type MSE struct{}

// Loss computes the mean squared error and its gradient.
func (MSE) Loss(pred, target *sparse.Dense) (float64, *sparse.Dense, error) {
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		return 0, nil, fmt.Errorf("%w: pred %dx%d vs target %dx%d",
			ErrShape, pred.Rows(), pred.Cols(), target.Rows(), target.Cols())
	}
	grad, _ := sparse.NewDense(pred.Rows(), pred.Cols())
	p, t, g := pred.Data(), target.Data(), grad.Data()
	var total float64
	invB := 1.0 / float64(pred.Rows())
	for i := range p {
		d := p[i] - t[i]
		total += 0.5 * d * d
		g[i] = d * invB
	}
	return total * invB, grad, nil
}

// SoftmaxCrossEntropy fuses a softmax over the last layer with the
// cross-entropy loss against one-hot targets; the fused gradient is the
// numerically stable (softmax − target)/batch.
type SoftmaxCrossEntropy struct{}

// Loss computes mean cross-entropy after a row-wise softmax of pred.
func (SoftmaxCrossEntropy) Loss(pred, target *sparse.Dense) (float64, *sparse.Dense, error) {
	if pred.Rows() != target.Rows() || pred.Cols() != target.Cols() {
		return 0, nil, fmt.Errorf("%w: pred %dx%d vs target %dx%d",
			ErrShape, pred.Rows(), pred.Cols(), target.Rows(), target.Cols())
	}
	grad, _ := sparse.NewDense(pred.Rows(), pred.Cols())
	invB := 1.0 / float64(pred.Rows())
	var total float64
	for b := 0; b < pred.Rows(); b++ {
		pRow := pred.RowSlice(b)
		tRow := target.RowSlice(b)
		gRow := grad.RowSlice(b)
		maxV := math.Inf(-1)
		for _, v := range pRow {
			if v > maxV {
				maxV = v
			}
		}
		var z float64
		for c, v := range pRow {
			e := math.Exp(v - maxV)
			gRow[c] = e
			z += e
		}
		for c := range gRow {
			sm := gRow[c] / z
			if tRow[c] > 0 {
				total -= tRow[c] * math.Log(math.Max(sm, 1e-300))
			}
			gRow[c] = (sm - tRow[c]) * invB
		}
	}
	return total * invB, grad, nil
}

// Argmax returns the index of the largest value in each row of the batch.
func Argmax(batch *sparse.Dense) []int {
	out := make([]int, batch.Rows())
	for b := 0; b < batch.Rows(); b++ {
		row := batch.RowSlice(b)
		best, bestIdx := math.Inf(-1), 0
		for c, v := range row {
			if v > best {
				best, bestIdx = v, c
			}
		}
		out[b] = bestIdx
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(pred *sparse.Dense, labels []int) (float64, error) {
	if pred.Rows() != len(labels) {
		return 0, fmt.Errorf("%w: %d predictions vs %d labels", ErrShape, pred.Rows(), len(labels))
	}
	correct := 0
	for i, p := range Argmax(pred) {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}
