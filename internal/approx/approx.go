// Package approx is the empirical harness for the paper's §IV conjecture:
// if the dense FNNT family D_N approximates continuous functions with error
// δ(D_N) ∈ O(N^{-p}), then a sparse symmetric family S_N achieves the same
// order. The harness trains dense and RadiX-Net networks of growing hidden
// width N on target functions in C[0,1], estimates the sup-norm error δ̂ on
// a fine grid, and fits the decay exponent p of each family. Matching
// fitted exponents (within tolerance) is the executable form of the
// conjecture.
package approx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/nn"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// Target is a named continuous function on [0,1].
type Target struct {
	Name string
	F    func(float64) float64
}

// StandardTargets returns the benchmark functions used by the conjecture
// experiments: smooth, oscillatory and kinked members of C[0,1].
func StandardTargets() []Target {
	return []Target{
		{Name: "sin2pi", F: func(x float64) float64 { return math.Sin(2 * math.Pi * x) }},
		{Name: "bump", F: func(x float64) float64 {
			d := x - 0.5
			return math.Exp(-50 * d * d)
		}},
		{Name: "abs-kink", F: func(x float64) float64 { return math.Abs(x-0.4) - 0.2 }},
	}
}

// RunConfig controls one decay experiment.
type RunConfig struct {
	Widths      []int // hidden widths N; each must be ≥ 4
	Hidden      int   // number of hidden layers (≥ 1)
	Epochs      int
	LR          float64
	Samples     int // training sample count on [0,1]
	Grid        int // sup-norm evaluation grid size
	Seed        int64
	BatchSize   int
	MaxParallel int // trainer workers; <1 means GOMAXPROCS
}

// DefaultRunConfig returns a configuration small enough for tests yet able
// to expose the decay trend.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Widths:    []int{8, 16, 32, 64},
		Hidden:    2,
		Epochs:    300,
		LR:        0.01,
		Samples:   128,
		Grid:      512,
		Seed:      1,
		BatchSize: 32,
	}
}

// FamilyResult reports one network family's error decay.
type FamilyResult struct {
	Widths  []int
	SupErr  []float64 // δ̂ at each width
	Params  []int     // trainable parameter counts
	Decay   float64   // fitted exponent p in δ̂ ∝ N^{-p}
	Rsq     float64   // goodness of the log-log fit
	Monoton bool      // whether δ̂ is non-increasing in N
}

// Result pairs the dense and sparse families on one target.
type Result struct {
	Target string
	Dense  FamilyResult
	Sparse FamilyResult
}

// Run trains both families on the target and returns their decay fits.
func Run(target Target, cfg RunConfig) (Result, error) {
	if len(cfg.Widths) < 2 {
		return Result{}, errors.New("approx: need at least two widths to fit a decay")
	}
	if cfg.Hidden < 1 || cfg.Epochs < 1 || cfg.Samples < 8 || cfg.Grid < 16 {
		return Result{}, fmt.Errorf("approx: invalid run config %+v", cfg)
	}
	res := Result{Target: target.Name}
	x, y, err := dataset.Func1D(target.F, cfg.Samples)
	if err != nil {
		return Result{}, err
	}

	var denseErr, sparseErr []float64
	var denseParams, sparseParams []int
	for wi, width := range cfg.Widths {
		if width < 4 {
			return Result{}, fmt.Errorf("approx: width %d too small", width)
		}
		seed := cfg.Seed + int64(wi)*1000
		net, err := denseFamily(width, cfg.Hidden, seed)
		if err != nil {
			return Result{}, err
		}
		sup, err := trainAndMeasure(net, x, y, target.F, cfg, seed)
		if err != nil {
			return Result{}, err
		}
		denseErr = append(denseErr, sup)
		denseParams = append(denseParams, net.NumParams())
		net, err = SparseFamily(width, cfg.Hidden, seed)
		if err != nil {
			return Result{}, err
		}
		sup, err = trainAndMeasure(net, x, y, target.F, cfg, seed)
		if err != nil {
			return Result{}, err
		}
		sparseErr = append(sparseErr, sup)
		sparseParams = append(sparseParams, net.NumParams())
	}
	res.Dense = familyResult(cfg.Widths, denseErr, denseParams)
	res.Sparse = familyResult(cfg.Widths, sparseErr, sparseParams)
	return res, nil
}

// denseFamily builds D_N: input 1 → hidden widths N (dense) → output 1.
func denseFamily(width, hidden int, seed int64) (*nn.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, hidden+2)
	sizes[0] = 1
	for i := 1; i <= hidden; i++ {
		sizes[i] = width
	}
	sizes[hidden+1] = 1
	return nn.DenseNet(sizes, nn.Tanh, rng)
}

// SparseFamily builds S_N: the same layer sizes as D_N but with RadiX-Net
// mixed-radix connectivity between hidden layers. Input and output
// connections stay dense (the collector construction of §IV.A), so the
// whole FNNT remains symmetric: ones · (mixed-radix product) · ones is a
// constant matrix. Exported for reuse by the training benchmarks.
func SparseFamily(width, hidden int, seed int64) (*nn.Network, error) {
	rng := rand.New(rand.NewSource(seed))
	var layers []nn.Layer
	first, err := nn.NewDenseLinear(1, width, rng)
	if err != nil {
		return nil, err
	}
	layers = append(layers, first, nn.Tanh())
	if hidden > 1 {
		sys, err := radix.Factorize(width)
		if err != nil {
			return nil, err
		}
		mr := core.MixedRadix(sys)
		// Use successive submatrices of the mixed-radix topology, cycling
		// when the network is deeper than the system.
		for i := 0; i < hidden-1; i++ {
			sub := mr.Sub(i % mr.NumSubs())
			layers = append(layers, nn.NewSparseLinear(sub, rng), nn.Tanh())
		}
	}
	last, err := nn.NewDenseLinear(width, 1, rng)
	if err != nil {
		return nil, err
	}
	layers = append(layers, last)
	return nn.NewNetwork(layers...)
}

func trainAndMeasure(net *nn.Network, x, y *sparse.Dense, f func(float64) float64, cfg RunConfig, seed int64) (float64, error) {
	tr := &nn.Trainer{
		Net:       net,
		Opt:       &nn.Adam{LR: cfg.LR},
		Loss:      nn.MSE{},
		BatchSize: cfg.BatchSize,
		Workers:   cfg.MaxParallel,
		Seed:      seed,
	}
	if tr.BatchSize < 1 {
		tr.BatchSize = 32
	}
	if _, err := tr.Fit(x, y, cfg.Epochs); err != nil {
		return 0, err
	}
	return SupNormError(net, f, cfg.Grid)
}

// SupNormError estimates δ̂ = sup_x |net(x) − f(x)| over a uniform grid on
// [0,1].
func SupNormError(net *nn.Network, f func(float64) float64, grid int) (float64, error) {
	if grid < 2 {
		return 0, errors.New("approx: grid must have at least two points")
	}
	x, _ := sparse.NewDense(grid, 1)
	for i := 0; i < grid; i++ {
		x.Set(i, 0, float64(i)/float64(grid-1))
	}
	out, err := net.Forward(x)
	if err != nil {
		return 0, err
	}
	var sup float64
	for i := 0; i < grid; i++ {
		if d := math.Abs(out.At(i, 0) - f(x.At(i, 0))); d > sup {
			sup = d
		}
	}
	return sup, nil
}

func familyResult(widths []int, errs []float64, params []int) FamilyResult {
	fr := FamilyResult{
		Widths: append([]int(nil), widths...),
		SupErr: append([]float64(nil), errs...),
		Params: append([]int(nil), params...),
	}
	fr.Decay, fr.Rsq = FitDecay(widths, errs)
	fr.Monoton = true
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]*1.05 { // tolerate small non-monotonic jitter
			fr.Monoton = false
		}
	}
	return fr
}

// FitDecay fits δ̂ ≈ C·N^{-p} by least squares on log δ̂ vs log N and
// returns p together with the fit's R². Zero or negative errors are clamped
// to 1e-12 before taking logs.
func FitDecay(widths []int, errs []float64) (p, rsq float64) {
	n := float64(len(widths))
	if len(widths) < 2 || len(widths) != len(errs) {
		return 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i, w := range widths {
		x := math.Log(float64(w))
		e := errs[i]
		if e < 1e-12 {
			e = 1e-12
		}
		y := math.Log(e)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope := (n*sxy - sx*sy) / den
	p = -slope
	// R² of the regression. Near-zero variance (constant errors) is a
	// perfect fit of the p = 0 line; guard against float residue.
	varY := syy - sy*sy/n
	if varY <= 1e-9*math.Max(1, syy) {
		return p, 1
	}
	ssRes := syy - sy*sy/n - slope*(sxy-sx*sy/n)
	rsq = 1 - ssRes/varY
	return p, rsq
}
