package infer

import (
	"fmt"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/sparse"
)

// KernelKind names the fused kernel family an engine's layer steps run. An
// engine is built with its family (FromConfigKernel) and keeps it for life.
type KernelKind int

const (
	// KernelCSC is the generic fused CSC gather / CSR scatter kernel pair —
	// correct for any sparsity pattern, and the bit-identity oracle the
	// structure-aware path is validated against. The zero value, so engines
	// built from explicit matrices (New, FromTopology) default to it.
	KernelCSC KernelKind = iota

	// KernelRadix is the structure-aware butterfly kernel: each layer runs a
	// compiled mixed-radix stride plan with arithmetic addressing and no
	// index arrays in the hot loop. Only available when every layer's pattern
	// has been proven radix-structured, which construction from a config does.
	KernelRadix

	// KernelAuto resolves at construction to KernelRadix when every layer
	// compiles to a verified stride plan and KernelCSC otherwise. It is the
	// default for config-built engines.
	KernelAuto
)

// String returns the kernel's wire name, as GET /v1/models reports it.
func (k KernelKind) String() string {
	switch k {
	case KernelCSC:
		return "csc"
	case KernelRadix:
		return "radix"
	case KernelAuto:
		return "auto"
	}
	return fmt.Sprintf("KernelKind(%d)", int(k))
}

// FromConfigKernel is FromConfig with explicit kernel selection. KernelAuto
// compiles stride plans and falls back to CSC only if the built layers do
// not verify as radix-structured (which config-built networks always do);
// KernelRadix makes that failure an error; KernelCSC skips plan compilation
// entirely.
func FromConfigKernel(cfg core.Config, kind KernelKind) (*Engine, error) {
	if kind != KernelCSC && kind != KernelRadix && kind != KernelAuto {
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
	// A failed compilation leaves the engine on CSC, which is what
	// KernelAuto asks for on a pattern that does not verify.
	if err := e.compileRadixPlans(cfg); err != nil && kind == KernelRadix {
		return nil, err
	}
	return e, nil
}

// compileRadixPlans compiles and verifies a stride plan for every distinct
// layer of the engine from the mixed-radix config that generated it and
// rebinds the engine's layers to the structure-aware family. A plan is a proof
// about one immutable pattern under one (place value, radix, shape), so layers
// that share the pattern and the parameters share the verified plan; the
// radix kernels read the engine's matrices and CSC kernels, so
// RefreshWeights/PerturbWeights and Clone sharing work unchanged, and the
// values are numbered (Engine.number). On any layer failing structural
// verification (the config does not describe these matrices) the engine is
// left unmodified on the CSC kernel and the error reports the layer.
// Construction is its only caller: it runs before the engine has served a
// call.
func (e *Engine) compileRadixPlans(cfg core.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("infer: radix plans: %w", err)
	}
	if got := cfg.TotalRadices(); got != len(e.layers) {
		return fmt.Errorf("infer: config has %d radix layers, engine has %d", got, len(e.layers))
	}
	np := cfg.NPrime()
	shape := cfg.ShapeOrOnes()
	radixKerns := make([]*sparse.RadixKernel, len(e.layers))
	type planKey struct {
		pat                     *sparse.Pattern
		pv, radix, dPrev, dNext int
	}
	plans := make(map[planKey]*sparse.StridePlan)
	l := 0
	for _, sys := range cfg.Systems {
		for i := 0; i < sys.Len(); i++ {
			key := planKey{e.layers[l].Pattern(), sys.PlaceValue(i), sys.Radix(i), shape[l], shape[l+1]}
			plan := plans[key]
			if plan == nil {
				var err error
				if plan, err = sparse.CompileStridePlan(key.pat, np, key.pv, key.radix, key.dPrev, key.dNext); err != nil {
					return fmt.Errorf("infer: layer %d: %w", l, err)
				}
				plans[key] = plan
			}
			rk, err := sparse.NewRadixKernel(e.layers[l], e.kernels[l], plan)
			if err != nil {
				return fmt.Errorf("infer: layer %d: %w", l, err)
			}
			radixKerns[l] = rk
			l++
		}
	}
	steps := make([]layerKernel, len(radixKerns))
	for l, rk := range radixKerns {
		steps[l] = radixLayer{rk}
	}
	e.radix = radixKerns
	e.kind = KernelRadix
	e.bind(steps)
	e.number()
	return nil
}

// Kernel reports the kernel family the engine was built with (KernelCSC or
// KernelRadix, never KernelAuto).
func (e *Engine) Kernel() KernelKind { return e.kind }
