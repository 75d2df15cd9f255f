package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// numericalGrad estimates d(loss)/d(param) by central differences for every
// parameter of the network, the oracle that validates backprop.
func numericalGrad(t *testing.T, net *Network, loss Loss, x, target *sparse.Dense) [][]float64 {
	t.Helper()
	const h = 1e-6
	var grads [][]float64
	for _, p := range net.Params() {
		g := make([]float64, len(p.W))
		for j := range p.W {
			orig := p.W[j]
			p.W[j] = orig + h
			outP, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			lp, _, err := loss.Loss(outP, target)
			if err != nil {
				t.Fatal(err)
			}
			p.W[j] = orig - h
			outM, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			lm, _, err := loss.Loss(outM, target)
			if err != nil {
				t.Fatal(err)
			}
			p.W[j] = orig
			g[j] = (lp - lm) / (2 * h)
		}
		grads = append(grads, g)
	}
	return grads
}

// analyticGrad runs forward+backward once and snapshots the accumulated
// gradients.
func analyticGrad(t *testing.T, net *Network, loss Loss, x, target *sparse.Dense) [][]float64 {
	t.Helper()
	net.ZeroGrads()
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := loss.Loss(out, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	var grads [][]float64
	for _, p := range net.Params() {
		grads = append(grads, append([]float64(nil), p.G...))
	}
	return grads
}

func checkGrads(t *testing.T, net *Network, loss Loss, x, target *sparse.Dense, tol float64) {
	t.Helper()
	ana := analyticGrad(t, net, loss, x, target)
	num := numericalGrad(t, net, loss, x, target)
	for i := range ana {
		for j := range ana[i] {
			diff := math.Abs(ana[i][j] - num[i][j])
			scale := math.Max(1, math.Max(math.Abs(ana[i][j]), math.Abs(num[i][j])))
			if diff/scale > tol {
				t.Fatalf("param %d[%d]: analytic %g vs numeric %g", i, j, ana[i][j], num[i][j])
			}
		}
	}
}

// oneHot encodes labels through dataset's encoder, the one the callers use.
func oneHot(t *testing.T, labels []int, classes int) *sparse.Dense {
	t.Helper()
	target, err := (&dataset.Dataset{Labels: labels, Classes: classes}).Targets()
	if err != nil {
		t.Fatal(err)
	}
	return target
}

func randBatch(rng *rand.Rand, rows, cols int) *sparse.Dense {
	d, _ := sparse.NewDense(rows, cols)
	for i := range d.Data() {
		d.Data()[i] = rng.NormFloat64()
	}
	return d
}

func TestDenseLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, err := NewDenseLinear(4, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := NewNetwork(l)
	checkGrads(t, net, MSE{}, randBatch(rng, 5, 4), randBatch(rng, 5, 3), 1e-5)
}

func TestSparseLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pat, err := sparse.NewPattern(4, 3, [][]int{{0, 2}, {1}, {0, 1, 2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	l := NewSparseLinear(pat, rng)
	net, _ := NewNetwork(l)
	checkGrads(t, net, MSE{}, randBatch(rng, 5, 4), randBatch(rng, 5, 3), 1e-5)
}

func TestDeepMixedNetworkGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mr := core.MixedRadix(radix.MustNew(2, 2))
	dl1, _ := NewDenseLinear(3, 4, rng)
	sl := NewSparseLinear(mr.Sub(0), rng)
	dl2, _ := NewDenseLinear(4, 2, rng)
	net, err := NewNetwork(dl1, Tanh(), sl, Sigmoid(), dl2)
	if err != nil {
		t.Fatal(err)
	}
	checkGrads(t, net, MSE{}, randBatch(rng, 4, 3), randBatch(rng, 4, 2), 1e-4)
}

func TestSoftmaxCrossEntropyGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dl, _ := NewDenseLinear(3, 4, rng)
	net, _ := NewNetwork(dl, ReLU(), mustDense(t, 4, 4, rng))
	target := oneHot(t, []int{1, 3, 0, 2, 1}, 4)
	checkGrads(t, net, SoftmaxCrossEntropy{}, randBatch(rng, 5, 3), target, 1e-4)
}

func mustDense(t *testing.T, in, out int, rng *rand.Rand) *DenseLinear {
	t.Helper()
	l, err := NewDenseLinear(in, out, rng)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestActivationValues(t *testing.T) {
	x, _ := sparse.DenseFromSlice(1, 4, []float64{-2, -0.5, 0.5, 2})
	relu, _ := ReLU().Forward(x)
	want := []float64{0, 0, 0.5, 2}
	for i, w := range want {
		if relu.At(0, i) != w {
			t.Fatalf("ReLU[%d] = %g, want %g", i, relu.At(0, i), w)
		}
	}
	sig, _ := Sigmoid().Forward(x)
	if v := sig.At(0, 3); math.Abs(v-1/(1+math.Exp(-2))) > 1e-12 {
		t.Fatalf("Sigmoid(2) = %g", v)
	}
	th, _ := Tanh().Forward(x)
	if v := th.At(0, 0); math.Abs(v-math.Tanh(-2)) > 1e-12 {
		t.Fatalf("Tanh(-2) = %g", v)
	}
}

func TestActivationBackwardBeforeForward(t *testing.T) {
	g, _ := sparse.NewDense(1, 2)
	if _, err := ReLU().Backward(g); err == nil {
		t.Fatal("Backward before Forward accepted")
	}
}

func TestLayerShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dl, _ := NewDenseLinear(4, 3, rng)
	if _, err := dl.Forward(randBatch(rng, 2, 5)); err == nil {
		t.Fatal("wrong input width accepted")
	}
	pat := sparse.Ones(4, 3)
	sl := NewSparseLinear(pat, rng)
	if _, err := sl.Forward(randBatch(rng, 2, 5)); err == nil {
		t.Fatal("wrong input width accepted")
	}
	if _, err := dl.Backward(randBatch(rng, 2, 3)); err == nil {
		t.Fatal("Backward before Forward accepted")
	}
}

func TestNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, _ := NewDenseLinear(3, 4, rng)
	b, _ := NewDenseLinear(5, 2, rng)
	if _, err := NewNetwork(a, b); err == nil {
		t.Fatal("nonconforming layer chain accepted")
	}
	if _, err := NewNetwork(); err == nil {
		t.Fatal("empty network accepted")
	}
	c, _ := NewDenseLinear(4, 2, rng)
	if _, err := NewNetwork(a, ReLU(), c); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestAccuracy(t *testing.T) {
	pred, _ := sparse.DenseFromSlice(2, 3, []float64{0.1, 0.9, 0, 0.8, 0.1, 0.1})
	acc, err := Accuracy(pred, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Fatalf("accuracy = %g", acc)
	}
	acc, _ = Accuracy(pred, []int{0, 0})
	if acc != 0.5 {
		t.Fatalf("accuracy = %g", acc)
	}
	if _, err := Accuracy(pred, []int{0}); err == nil {
		t.Fatal("label-count mismatch accepted")
	}
}

func TestSGDReducesQuadratic(t *testing.T) {
	// One dense layer with MSE on a fixed linear target is a convex problem;
	// SGD must reduce the loss monotonically at a small step size.
	rng := rand.New(rand.NewSource(7))
	dl, _ := NewDenseLinear(3, 2, rng)
	net, _ := NewNetwork(dl)
	x := randBatch(rng, 16, 3)
	target := randBatch(rng, 16, 2)
	tr := &Trainer{Net: net, Opt: &SGD{LR: 0.05}, Loss: MSE{}, BatchSize: 16, Workers: 1}
	var prev float64 = math.Inf(1)
	for i := 0; i < 30; i++ {
		loss, err := tr.TrainBatch(x, target)
		if err != nil {
			t.Fatal(err)
		}
		if loss > prev+1e-9 {
			t.Fatalf("step %d: loss rose %g → %g", i, prev, loss)
		}
		prev = loss
	}
}

func TestAdamConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randBatch(rng, 32, 3)
	target := randBatch(rng, 32, 2)
	dl, _ := NewDenseLinear(3, 2, rand.New(rand.NewSource(9)))
	net, _ := NewNetwork(dl)
	tr := &Trainer{Net: net, Opt: &Adam{LR: 0.05}, Loss: MSE{}, BatchSize: 32, Workers: 1}
	first, err := tr.TrainBatch(x, target)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 100; i++ {
		last, err = tr.TrainBatch(x, target)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last > first*0.5 {
		t.Fatalf("adam: loss %g → %g did not halve", first, last)
	}
}

func TestOptimizerValidation(t *testing.T) {
	p := []Param{{W: []float64{1}, G: []float64{1}}}
	if err := (&SGD{}).Step(p); err == nil {
		t.Fatal("zero LR accepted")
	}
	if err := (&Adam{}).Step(p); err == nil {
		t.Fatal("zero LR accepted")
	}
	bad := []Param{{W: []float64{1, 2}, G: []float64{1}}}
	if err := (&SGD{LR: 0.1}).Step(bad); err == nil {
		t.Fatal("mismatched param accepted")
	}
}

// TestShardedGradientMatchesSerial pins data-parallel exactness: the
// all-reduced gradient must equal the single-worker gradient up to
// floating-point summation order. The mixed-radix (2,4) layer in the middle
// puts SparseLinear.CloneShared's per-replica CSC kernel under the check.
func TestShardedGradientMatchesSerial(t *testing.T) {
	mr := core.MixedRadix(radix.MustNew(2, 4))
	build := func(seed int64) *Network {
		rng := rand.New(rand.NewSource(seed))
		dl1, _ := NewDenseLinear(6, 8, rng)
		sl := NewSparseLinear(mr.Sub(0), rng)
		dl2, _ := NewDenseLinear(8, 3, rng)
		net, err := NewNetwork(dl1, Tanh(), sl, Tanh(), dl2)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	rng := rand.New(rand.NewSource(11))
	x := randBatch(rng, 24, 6)
	target := randBatch(rng, 24, 3)

	netA := build(42)
	trA := &Trainer{Net: netA, Opt: &SGD{LR: 0.1}, Loss: MSE{}, BatchSize: 24, Workers: 1}
	lossA, err := trA.TrainBatch(x, target)
	if err != nil {
		t.Fatal(err)
	}

	netB := build(42)
	trB := &Trainer{Net: netB, Opt: &SGD{LR: 0.1}, Loss: MSE{}, BatchSize: 24, Workers: 4}
	lossB, err := trB.TrainBatch(x, target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lossA-lossB) > 1e-9 {
		t.Fatalf("losses diverge: %g vs %g", lossA, lossB)
	}
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		for j := range pa[i].W {
			if math.Abs(pa[i].W[j]-pb[i].W[j]) > 1e-9 {
				t.Fatalf("weights diverge at %d[%d]: %g vs %g", i, j, pa[i].W[j], pb[i].W[j])
			}
		}
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := (&Trainer{}).TrainBatch(nil, nil); err == nil {
		t.Fatal("empty trainer accepted")
	}
	rng := rand.New(rand.NewSource(12))
	dl, _ := NewDenseLinear(2, 2, rng)
	net, _ := NewNetwork(dl)
	tr := &Trainer{Net: net, Opt: &SGD{LR: 0.1}, Loss: MSE{}, BatchSize: 0}
	if _, err := tr.TrainBatch(randBatch(rng, 2, 2), randBatch(rng, 2, 2)); err == nil {
		t.Fatal("zero batch size accepted")
	}
	tr.BatchSize = 4
	if _, err := tr.TrainBatch(randBatch(rng, 2, 2), randBatch(rng, 3, 2)); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
}

func TestFitLearnsSeparableTask(t *testing.T) {
	// Two well-separated Gaussian blobs in 2D: a tiny net should reach high
	// accuracy within a few epochs.
	rng := rand.New(rand.NewSource(13))
	n := 200
	x, _ := sparse.NewDense(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		k := i % 2
		labels[i] = k
		cx := -2.0
		if k == 1 {
			cx = 2.0
		}
		x.Set(i, 0, cx+rng.NormFloat64()*0.5)
		x.Set(i, 1, rng.NormFloat64()*0.5)
	}
	target := oneHot(t, labels, 2)
	dl1, _ := NewDenseLinear(2, 8, rng)
	dl2, _ := NewDenseLinear(8, 2, rng)
	net, _ := NewNetwork(dl1, Tanh(), dl2)
	tr := &Trainer{Net: net, Opt: &Adam{LR: 0.02}, Loss: SoftmaxCrossEntropy{}, BatchSize: 32, Workers: 1, Seed: 1}
	hist, err := tr.Fit(x, target, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Epochs) != 15 {
		t.Fatalf("history has %d epochs", len(hist.Epochs))
	}
	acc, err := tr.Evaluate(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %g < 0.95 on a separable task", acc)
	}
}

func TestFromTopologyTrains(t *testing.T) {
	// A RadiX-Net-backed sparse network must train end to end.
	rng := rand.New(rand.NewSource(14))
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(2, 2, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := FromTopology(g, Tanh, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumParams() >= 8*8*3+8*3 {
		t.Fatalf("sparse net has %d params, should be far below dense %d", net.NumParams(), 8*8*3+8*3)
	}
	x := randBatch(rng, 10, 8)
	target := randBatch(rng, 10, 8)
	tr := &Trainer{Net: net, Opt: &SGD{LR: 0.05}, Loss: MSE{}, BatchSize: 10, Workers: 1}
	first, err := tr.TrainBatch(x, target)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		if last, err = tr.TrainBatch(x, target); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("sparse training did not reduce loss: %g → %g", first, last)
	}
}

func TestCloneSharedSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dl, _ := NewDenseLinear(2, 2, rng)
	net, _ := NewNetwork(dl, ReLU())
	rep := net.CloneShared()
	// Weights shared…
	net.Params()[0].W[0] = 123
	if rep.Params()[0].W[0] != 123 {
		t.Fatal("replica does not share weights")
	}
	// …gradients not.
	net.Params()[0].G[0] = 7
	if rep.Params()[0].G[0] == 7 {
		t.Fatal("replica shares gradient buffers")
	}
}

func TestDenseNetHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net, err := DenseNet([]int{4, 8, 3}, ReLU, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Forward(randBatch(rng, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols() != 3 {
		t.Fatalf("output width = %d", out.Cols())
	}
	if _, err := DenseNet([]int{4}, ReLU, rng); err == nil {
		t.Fatal("single size accepted")
	}
}

func TestMSEAndXentShapeErrors(t *testing.T) {
	a, _ := sparse.NewDense(2, 3)
	b, _ := sparse.NewDense(3, 3)
	if _, _, err := (MSE{}).Loss(a, b); err == nil {
		t.Fatal("MSE shape mismatch accepted")
	}
	if _, _, err := (SoftmaxCrossEntropy{}).Loss(a, b); err == nil {
		t.Fatal("xent shape mismatch accepted")
	}
}

func TestSoftmaxGradientSumsToZero(t *testing.T) {
	// For one-hot targets, each row of the fused softmax-CE gradient sums to
	// zero (softmax sums to 1, target sums to 1).
	rng := rand.New(rand.NewSource(17))
	pred := randBatch(rng, 4, 5)
	target := oneHot(t, []int{0, 1, 2, 3}, 5)
	_, grad, err := (SoftmaxCrossEntropy{}).Loss(pred, target)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		var sum float64
		for _, v := range grad.RowSlice(r) {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d gradient sums to %g", r, sum)
		}
	}
}
