package core

import (
	"fmt"
	"math/big"

	"github.com/radix-net/radixnet/internal/radix"
)

// UniformConfig returns a RadiX-Net config whose systems are all the
// ordinary base-`base` positional system with `depth` digits, repeated
// `numSystems` times, lifted with a constant dense shape `lift` at every
// layer. This is the zero-variance family for which the paper's density
// approximation (6) is exact: ΔG = base^{−(depth−1)}.
func UniformConfig(base, depth, numSystems, lift int) (Config, error) {
	if numSystems < 1 {
		return Config{}, ErrNoSystems
	}
	if lift < 1 {
		return Config{}, fmt.Errorf("%w: lift %d", ErrBadShape, lift)
	}
	sys, err := radix.Uniform(base, depth)
	if err != nil {
		return Config{}, err
	}
	systems := make([]radix.System, numSystems)
	for i := range systems {
		systems[i] = sys
	}
	var shape []int
	if lift > 1 {
		shape = make([]int, numSystems*depth+1)
		for i := range shape {
			shape[i] = lift
		}
		// Keep input and output layers at the natural width so the config
		// composes with datasets sized to N′.
		shape[0], shape[len(shape)-1] = 1, 1
	}
	return NewConfig(systems, shape)
}

// Fig1Config returns the paper's Figure 1 example: the mixed-radix topology
// of N = (2,2,2) as a single-system RadiX-Net.
func Fig1Config() Config {
	cfg, err := NewConfig([]radix.System{radix.MustNew(2, 2, 2)}, nil)
	if err != nil {
		panic("core: Fig1Config must validate: " + err.Error())
	}
	return cfg
}

// Fig2Config returns the concatenation sketched in Figure 2: three copies of
// N = (3,3,4) followed by a final system whose product divides N′ = 36.
func Fig2Config() Config {
	s := radix.MustNew(3, 3, 4)
	last := radix.MustNew(2, 3) // product 6, divides 36
	cfg, err := NewConfig([]radix.System{s, s, s, last}, nil)
	if err != nil {
		panic("core: Fig2Config must validate: " + err.Error())
	}
	return cfg
}

// Fig5Config returns the Figure 5 example shape D = (3,5,4,2) over three
// single-radix systems sharing N′: the figure's three Kronecker factors
// W*1⊗W1, W*2⊗W2, W*3⊗W3.
func Fig5Config(nprime int) (Config, error) {
	sys, err := radix.Factorize(nprime)
	if err != nil {
		return Config{}, err
	}
	if sys.Len() != 1 {
		// Use three single-radix systems of equal product when nprime is
		// prime; otherwise fall back to three full systems.
		sys = radix.MustNew(nprime)
	}
	systems := []radix.System{sys, sys, sys}
	return NewConfig(systems, []int{3, 5, 4, 2})
}

// GraphChallengeConfig returns a RadiX-Net configuration emulating the
// synthetic sparse DNNs of the MIT/IEEE/Amazon Graph Challenge, which were
// generated with the authors' RadiX-Net code: `layers` edge layers of
// `width` neurons each.
//
// The base network uses N′ = 1024 with systems (32,32), giving every neuron
// 32 connections at width 1024 — the challenge's connectivity. Widths that
// are multiples of 1024 are reached with a uniform Kronecker lift
// Di = width/1024, which scales per-neuron fan-in proportionally (the
// official challenge data kept fan-in at 32 by further subsampling, a step
// outside the RadiX-Net algebra; see the E10 section of bench_test.go).
// `layers` must be even so it divides into (32,32) systems.
func GraphChallengeConfig(width, layers int) (Config, error) {
	const base = 1024
	if width < base || width%base != 0 {
		return Config{}, fmt.Errorf("core: graph challenge width %d must be a positive multiple of %d", width, base)
	}
	if layers < 2 || layers%2 != 0 {
		return Config{}, fmt.Errorf("core: graph challenge layer count %d must be a positive even number", layers)
	}
	sys := radix.MustNew(32, 32)
	systems := make([]radix.System, layers/2)
	for i := range systems {
		systems[i] = sys
	}
	lift := width / base
	var shape []int
	if lift > 1 {
		shape = make([]int, layers+1)
		for i := range shape {
			shape[i] = lift
		}
	}
	return NewConfig(systems, shape)
}

// BrainStats summarizes a brain-scale configuration against its biological
// targets (experiment E11, substituting for Wang & Kepner's "Building a
// brain").
type BrainStats struct {
	Config      Config
	Neurons     *big.Int // total nodes
	Synapses    *big.Int // total edges
	Density     float64
	MeanDegree  float64 // synapses per neuron (directed, outgoing, interior layers)
	TargetNeur  *big.Int
	TargetSyn   *big.Int
	NeuronRatio float64 // Neurons / TargetNeur
	SynRatio    float64 // Synapses / TargetSyn
}

// HumanBrainNeurons is the commonly cited human brain neuron count (8.6e10).
var HumanBrainNeurons = big.NewInt(86_000_000_000)

// HumanBrainSynapses is a commonly cited human brain synapse count (1.5e14).
var HumanBrainSynapses = new(big.Int).Mul(big.NewInt(150), big.NewInt(1_000_000_000_000))

// BrainConfig builds a RadiX-Net whose size and sparsity approximate the
// human brain at a given linear scale factor in (0, 1]: scale = 1 targets
// ~8.6e10 neurons with ~10⁴ synapses per neuron. The construction uses
// systems (k, k) with k ≈ √(mean degree · something)… concretely: per-layer
// width w = D·N′ and per-neuron out-degree k·D for systems (k, k), solved so
// that total neurons ≈ scale·8.6e10 across `layerCount`+1 layers and degree
// ≈ 10⁴·scale^(1/3) stays biologically shaped at small scales.
func BrainConfig(scale float64, layerCount int) (BrainStats, error) {
	if scale <= 0 || scale > 1 {
		return BrainStats{}, fmt.Errorf("core: brain scale %g out of (0,1]", scale)
	}
	if layerCount < 2 || layerCount%2 != 0 {
		return BrainStats{}, fmt.Errorf("core: brain layer count %d must be even and ≥ 2", layerCount)
	}
	// Target degree ~1e4 at full scale; shrink gently with scale so small
	// demos stay runnable while keeping the density regime.
	targetNeurons := float64(86e9) * scale
	widthPerLayer := targetNeurons / float64(layerCount+1)
	// Choose k for systems (k,k): N′ = k², degree per neuron = k (with D=1).
	// Biological degree ≈ 1e4 needs k = 1e4 and N′ = 1e8; at reduced scale,
	// pick k as the largest radix with k² ≤ widthPerLayer and k ≤ 1e4.
	k := 2
	for (k+1)*(k+1) <= int(widthPerLayer) && k+1 <= 10_000 {
		k++
	}
	np := k * k
	lift := int(widthPerLayer) / np
	if lift < 1 {
		lift = 1
	}
	sys := radix.MustNew(k, k)
	systems := make([]radix.System, layerCount/2)
	for i := range systems {
		systems[i] = sys
	}
	var shape []int
	if lift > 1 {
		shape = make([]int, layerCount+1)
		for i := range shape {
			shape[i] = lift
		}
	}
	cfg, err := NewConfig(systems, shape)
	if err != nil {
		return BrainStats{}, err
	}
	stats := BrainStats{
		Config:     cfg,
		Neurons:    cfg.NumNodes(),
		Synapses:   cfg.NumEdges(),
		Density:    Density(cfg),
		MeanDegree: float64(k * lift),
		TargetNeur: new(big.Int).Set(HumanBrainNeurons),
		TargetSyn:  new(big.Int).Set(HumanBrainSynapses),
	}
	stats.NeuronRatio = ratioBig(stats.Neurons, stats.TargetNeur)
	stats.SynRatio = ratioBig(stats.Synapses, stats.TargetSyn)
	return stats, nil
}

func ratioBig(a, b *big.Int) float64 {
	fa, _ := new(big.Float).SetInt(a).Float64()
	fb, _ := new(big.Float).SetInt(b).Float64()
	if fb == 0 {
		return 0
	}
	return fa / fb
}
