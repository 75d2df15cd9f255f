package nn

import (
	"errors"
	"math"

	"github.com/radix-net/radixnet/internal/sparse"
)

// Activation is an elementwise nonlinearity with a derivative expressed in
// terms of the cached forward output (which suffices for every activation in
// this package).
type Activation struct {
	fn    func(float64) float64
	deriv func(y float64) float64 // derivative as a function of the OUTPUT y
	lastY *sparse.Dense
}

// ReLU returns the rectified linear activation max(0, x).
func ReLU() *Activation {
	return &Activation{
		fn: func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		deriv: func(y float64) float64 {
			if y > 0 {
				return 1
			}
			return 0
		},
	}
}

// Sigmoid returns the logistic activation 1/(1+e^{−x}), the paper's
// "sigmoidal" function from Cybenko's theorem (§IV.A).
func Sigmoid() *Activation {
	return &Activation{
		fn:    func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		deriv: func(y float64) float64 { return y * (1 - y) },
	}
}

// Tanh returns the hyperbolic tangent activation.
func Tanh() *Activation {
	return &Activation{
		fn:    math.Tanh,
		deriv: func(y float64) float64 { return 1 - y*y },
	}
}

// InSize returns 0: activations accept any width.
func (a *Activation) InSize() int { return 0 }

// OutSize returns 0: activations preserve width.
func (a *Activation) OutSize() int { return 0 }

// Forward applies the nonlinearity elementwise.
func (a *Activation) Forward(x *sparse.Dense) (*sparse.Dense, error) {
	y := x.Clone()
	y.Apply(a.fn)
	a.lastY = y
	return y, nil
}

// Backward multiplies the incoming gradient by the activation derivative.
func (a *Activation) Backward(dOut *sparse.Dense) (*sparse.Dense, error) {
	if a.lastY == nil {
		return nil, errors.New("nn: Backward before Forward")
	}
	dX := dOut.Clone()
	yData := a.lastY.Data()
	dData := dX.Data()
	if len(yData) != len(dData) {
		return nil, ErrShape
	}
	for i := range dData {
		dData[i] *= a.deriv(yData[i])
	}
	return dX, nil
}

// Params returns nil: activations are parameter-free.
func (a *Activation) Params() []Param { return nil }

// CloneShared returns an independent activation of the same kind.
func (a *Activation) CloneShared() Layer {
	return &Activation{fn: a.fn, deriv: a.deriv}
}
