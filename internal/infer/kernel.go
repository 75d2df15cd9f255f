package infer

import (
	"fmt"

	"github.com/radix-net/radixnet/internal/core"
)

// KernelKind names what an engine built from a config runs. Both kinds run
// the one arithmetic family, the CSC gather / CSR scatter pair; they differ in
// whether the engine numbers its values (Engine.number). An engine is built
// with its kind (FromConfigKernel) and keeps it for life.
type KernelKind int

const (
	// KernelCSC runs every layer per column and never numbers: the
	// bit-identity oracle the numbered engine is validated against. The zero
	// value, so engines built from explicit matrices (New, FromTopology)
	// default to it.
	KernelCSC KernelKind = iota

	// KernelAuto numbers the values at construction and at every
	// RefreshWeights, and runs a layer past the first whose columns they
	// number into fewer classes than columns as a quotient. It is the default
	// for config-built engines.
	KernelAuto
)

// String returns the kernel's name, as gcinfer's -kernel flag spells it.
func (k KernelKind) String() string {
	switch k {
	case KernelCSC:
		return "csc"
	case KernelAuto:
		return "auto"
	}
	return fmt.Sprintf("KernelKind(%d)", int(k))
}

// FromConfigKernel is FromConfig with explicit kernel selection: KernelAuto
// numbers the engine's values, KernelCSC leaves every layer per column.
func FromConfigKernel(cfg core.Config, kind KernelKind) (*Engine, error) {
	if kind != KernelCSC && kind != KernelAuto {
		return nil, fmt.Errorf("infer: invalid kernel kind %v", kind)
	}
	g, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	// Mean in-degree of the first layer sets the scale. Weight 4/fan-in with
	// a small negative bias keeps typical sparse inputs alive through
	// arbitrarily deep stacks: a neuron with ≥2 active in-edges clears the
	// bias, and growth saturates at the challenge's activation ceiling of 32
	// rather than exploding.
	inDeg := float64(g.Sub(0).NNZ()) / float64(g.Sub(0).Cols())
	e, err := FromTopology(g, 4.0/inDeg, -0.10, 32)
	if err != nil || kind == KernelCSC {
		return e, err
	}
	// Construction is the only place an engine changes kind: it has not
	// served a call yet.
	e.kind = KernelAuto
	e.number()
	return e, nil
}

// Kernel reports the kind the engine was built with.
func (e *Engine) Kernel() KernelKind { return e.kind }
