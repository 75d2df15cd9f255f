package approx

import (
	"math"
	"math/rand"
	"testing"

	"github.com/radix-net/radixnet/internal/nn"
	"github.com/radix-net/radixnet/internal/sparse"
)

func TestFitDecayRecoversExactPowerLaw(t *testing.T) {
	widths := []int{8, 16, 32, 64, 128}
	for _, p := range []float64{0.5, 1, 2} {
		errs := make([]float64, len(widths))
		for i, w := range widths {
			errs[i] = 3.7 * math.Pow(float64(w), -p)
		}
		got, rsq := FitDecay(widths, errs)
		if math.Abs(got-p) > 1e-9 {
			t.Fatalf("p = %g, want %g", got, p)
		}
		if rsq < 0.999999 {
			t.Fatalf("R² = %g on an exact power law", rsq)
		}
	}
}

func TestFitDecayDegenerateInputs(t *testing.T) {
	if p, _ := FitDecay([]int{8}, []float64{1}); p != 0 {
		t.Fatal("single point must not fit")
	}
	if p, _ := FitDecay([]int{8, 16}, []float64{1}); p != 0 {
		t.Fatal("length mismatch must not fit")
	}
	// Zero errors are clamped, not crashed.
	p, _ := FitDecay([]int{8, 16}, []float64{0, 0})
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("p = %g on clamped zeros", p)
	}
}

func TestFitDecayConstantErrors(t *testing.T) {
	p, rsq := FitDecay([]int{8, 16, 32}, []float64{0.5, 0.5, 0.5})
	if math.Abs(p) > 1e-12 {
		t.Fatalf("constant errors imply p ≈ 0, got %g", p)
	}
	if rsq < 1-1e-9 {
		t.Fatalf("constant fit R² = %g", rsq)
	}
}

func TestSupNormError(t *testing.T) {
	// A single linear layer initialized to zero predicts 0 everywhere; the
	// sup-norm error against f(x) = x is then 1 (attained at x = 1).
	rng := rand.New(rand.NewSource(1))
	dl, err := nn.NewDenseLinear(1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dl.Params() {
		for i := range p.W {
			p.W[i] = 0
		}
	}
	net, _ := nn.NewNetwork(dl)
	sup, err := SupNormError(net, func(x float64) float64 { return x }, 101)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sup-1) > 1e-12 {
		t.Fatalf("sup = %g, want 1", sup)
	}
	if _, err := SupNormError(net, math.Sin, 1); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestStandardTargetsAreContinuousAndBounded(t *testing.T) {
	for _, target := range StandardTargets() {
		prev := target.F(0)
		for i := 1; i <= 1000; i++ {
			x := float64(i) / 1000
			v := target.F(x)
			if math.IsNaN(v) || math.Abs(v) > 10 {
				t.Fatalf("%s unbounded at %g: %g", target.Name, x, v)
			}
			if math.Abs(v-prev) > 0.1 {
				t.Fatalf("%s jumps at %g: %g → %g", target.Name, x, prev, v)
			}
			prev = v
		}
	}
}

func TestSparseFamilyConstruction(t *testing.T) {
	for _, width := range []int{8, 16, 36} {
		net, err := SparseFamily(width, 3, 1)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		x, _ := sparse.NewDense(4, 1)
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cols() != 1 {
			t.Fatalf("output width = %d", out.Cols())
		}
		// The sparse family must have strictly fewer parameters than the
		// dense family at the same widths (for hidden ≥ 2).
		dnet, err := denseFamily(width, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if net.NumParams() >= dnet.NumParams() {
			t.Fatalf("width %d: sparse %d params ≥ dense %d", width, net.NumParams(), dnet.NumParams())
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Widths = []int{8}
	if _, err := Run(StandardTargets()[0], cfg); err == nil {
		t.Fatal("single width accepted")
	}
	cfg = DefaultRunConfig()
	cfg.Epochs = 0
	if _, err := Run(StandardTargets()[0], cfg); err == nil {
		t.Fatal("zero epochs accepted")
	}
	cfg = DefaultRunConfig()
	cfg.Widths = []int{2, 4}
	if _, err := Run(StandardTargets()[0], cfg); err == nil {
		t.Fatal("too-small width accepted")
	}
}

// TestRunSmoke exercises the full harness on a tiny budget: both families
// must achieve finite errors and the fitted exponents must be finite. The
// conjecture-level comparison (matched exponents on a real budget) no longer
// runs in-tree: nothing here compares the two families' exponents.
func TestRunSmoke(t *testing.T) {
	cfg := RunConfig{
		Widths:      []int{8, 16},
		Hidden:      2,
		Epochs:      40,
		LR:          0.02,
		Samples:     32,
		Grid:        64,
		Seed:        1,
		BatchSize:   16,
		MaxParallel: 1,
	}
	res, err := Run(StandardTargets()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dense.SupErr) != 2 || len(res.Sparse.SupErr) != 2 {
		t.Fatal("missing family results")
	}
	for _, e := range append(res.Dense.SupErr, res.Sparse.SupErr...) {
		if math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
			t.Fatalf("bad sup error %g", e)
		}
	}
	if res.Dense.Params[0] <= res.Sparse.Params[0] {
		t.Fatalf("dense %d params should exceed sparse %d", res.Dense.Params[0], res.Sparse.Params[0])
	}
}
