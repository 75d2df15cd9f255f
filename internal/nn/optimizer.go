package nn

import (
	"errors"
	"math"
)

// Optimizer updates parameters in place from their accumulated gradients.
// Step is called once per minibatch after gradients have been accumulated;
// implementations must tolerate the parameter list being identical across
// calls (they key internal state by parameter index).
type Optimizer interface {
	Step(params []Param) error
}

// SGD is plain stochastic gradient descent: W −= LR·G.
type SGD struct {
	LR float64
}

// Step applies one SGD update.
func (o *SGD) Step(params []Param) error {
	if o.LR <= 0 {
		return errors.New("nn: SGD learning rate must be positive")
	}
	for _, p := range params {
		if len(p.W) != len(p.G) {
			return ErrShape
		}
		for j := range p.W {
			p.W[j] -= o.LR * p.G[j]
		}
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction and their
// default β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
type Adam struct {
	LR   float64
	t    int
	m, v [][]float64
}

// Step applies one Adam update.
func (o *Adam) Step(params []Param) error {
	if o.LR <= 0 {
		return errors.New("nn: Adam learning rate must be positive")
	}
	// Variables, not untyped constants: an untyped 1-b1 folds to exactly 0.1
	// at compile time, where the float64 subtraction gives 0.09999999999999998.
	b1, b2, eps := 0.9, 0.999, 1e-8
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, len(p.W))
			o.v[i] = make([]float64, len(p.W))
		}
	}
	if len(o.m) != len(params) {
		return errors.New("nn: Adam reused across different parameter lists")
	}
	o.t++
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	for i, p := range params {
		if len(p.W) != len(p.G) {
			return ErrShape
		}
		m, v := o.m[i], o.v[i]
		for j := range p.W {
			g := p.G[j]
			m[j] = b1*m[j] + (1-b1)*g
			v[j] = b2*v[j] + (1-b2)*g*g
			p.W[j] -= o.LR * (m[j] / c1) / (math.Sqrt(v[j]/c2) + eps)
		}
	}
	return nil
}
