package infer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

func smallEngine(t *testing.T) *Engine {
	t.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromTopology(g, 0.5, -0.05, 32)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, 0); err == nil {
		t.Fatal("empty engine accepted")
	}
	m := sparse.MatrixFromPattern(sparse.Ones(4, 4), 1)
	if _, err := New([]*sparse.Matrix{m}, []float64{0, 0}, 0); err == nil {
		t.Fatal("bias-count mismatch accepted")
	}
	bad := sparse.MatrixFromPattern(sparse.Ones(5, 4), 1)
	if _, err := New([]*sparse.Matrix{m, bad}, []float64{0, 0}, 0); err == nil {
		t.Fatal("nonconforming layers accepted")
	}
}

// randomEngine builds an engine over shift-structured sparse layers with
// rng-drawn weights, biases (both signs) and cap. Exercises cap=0 (no
// ceiling), positive biases (dead-row resurrection) and perturbed weights.
func randomEngine(rng *rand.Rand) (*Engine, int, error) {
	width := 4 + rng.Intn(6)
	depth := 1 + rng.Intn(5)
	layers := make([]*sparse.Matrix, depth)
	biases := make([]float64, depth)
	for i := range layers {
		pat := sparse.SumOfShifts(width, []int{0, 1 + rng.Intn(width-1)})
		layers[i] = sparse.MatrixFromPattern(pat, 0.1+rng.Float64())
		biases[i] = rng.Float64()*0.4 - 0.3
	}
	cap := 0.0 // every third engine runs uncapped
	if rng.Intn(3) > 0 {
		cap = 0.5 + rng.Float64()*2
	}
	e, err := New(layers, biases, cap)
	if err != nil {
		return nil, 0, err
	}
	if rng.Intn(2) == 0 {
		e.PerturbWeights(0.2, rng.Int63())
	}
	return e, width, nil
}

func TestInferMatchesReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, width, err := randomEngine(rng)
		if err != nil {
			return false
		}
		batch, err := dataset.SparseBatch(1+rng.Intn(8), width, 1+rng.Intn(width), seed)
		if err != nil {
			return false
		}
		// Zero out some rows entirely to exercise active-row tracking.
		for r := 0; r < batch.Rows(); r++ {
			if rng.Intn(3) == 0 {
				row := batch.RowSlice(r)
				for c := range row {
					row[c] = 0
				}
			}
		}
		fast, err := e.Infer(batch)
		if err != nil {
			return false
		}
		slow, err := e.ReferenceInfer(batch)
		if err != nil {
			return false
		}
		diff, err := fast.MaxAbsDiff(slow)
		return err == nil && diff < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestInferMatchesReferenceAcrossRadixConfigs(t *testing.T) {
	// The fused kernel against the oracle on real RadiX-Net topologies of
	// varying width/depth, across batch sizes, caps (including cap=0) and
	// perturbed weights.
	systems := [][]int{{4, 4}, {2, 2, 2}, {8, 8}, {3, 3, 4}}
	for si, sys := range systems {
		cfg, err := core.NewConfig([]radix.System{radix.MustNew(sys...)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cap := range []float64{0, 2, 32} {
			e, err := FromTopology(g, 0.5, -0.05, cap)
			if err != nil {
				t.Fatal(err)
			}
			e.PerturbWeights(0.1, int64(si))
			width := g.Sub(0).Rows()
			for _, batchRows := range []int{1, 3, 16} {
				batch, err := dataset.SparseBatch(batchRows, width, 1+width/3, int64(si+batchRows))
				if err != nil {
					t.Fatal(err)
				}
				fast, err := e.Infer(batch)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := e.ReferenceInfer(batch)
				if err != nil {
					t.Fatal(err)
				}
				diff, err := fast.MaxAbsDiff(slow)
				if err != nil {
					t.Fatal(err)
				}
				if diff >= 1e-12 {
					t.Fatalf("sys=%v cap=%g batch=%d: fused vs reference diff %g", sys, cap, batchRows, diff)
				}
			}
		}
	}
}

func TestInferDoesNotMutateInput(t *testing.T) {
	// Regression: the engine must never clamp or overwrite the caller's
	// batch, even though the first layer reads it directly.
	e := smallEngine(t)
	batch, err := dataset.SparseBatch(5, 16, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Include values the epilogue would clamp if it ever touched the input.
	batch.Set(0, 0, -3)
	batch.Set(1, 1, 1e6)
	orig := batch.Clone()
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := batch.MaxAbsDiff(orig); diff != 0 {
		t.Fatalf("Infer mutated its input (max diff %g)", diff)
	}
	if &out.Data()[0] == &batch.Data()[0] {
		t.Fatal("Infer returned the caller's storage")
	}
	if _, err := e.ReferenceInfer(batch); err != nil {
		t.Fatal(err)
	}
	if diff, _ := batch.MaxAbsDiff(orig); diff != 0 {
		t.Fatal("ReferenceInfer mutated its input")
	}
}

func TestInferAcceptsOwnOutputAsInput(t *testing.T) {
	// Feeding the engine's returned view back in must work: the input is
	// staged into a separate buffer before the ping-pong pass overwrites it.
	e := smallEngine(t)
	batch, err := dataset.SparseBatch(4, 16, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ReferenceInfer(out1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	out2, err := e.Infer(out1)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := out2.MaxAbsDiff(want)
	if err != nil {
		t.Fatal(err)
	}
	if diff >= 1e-12 {
		t.Fatalf("self-feed diff %g", diff)
	}

	// With several tiles in flight on two workers, the output is written
	// while other tiles still read the input it is. At equal widths a row's
	// input and output are one slot, read (into the tile's scratch) before it
	// is written, and the batch runs in place; at unequal widths — the
	// output's storage viewed at the input's width — and on a one-layer
	// stack, whose only layer would read the row it writes, the input must
	// have been staged.
	for _, c := range []struct {
		name   string
		e      *Engine
		rows   int // of the first batch
		staged bool
	}{
		{"equal widths", configEngine(t, KernelAuto, nil, []int{8, 8}, []int{8, 8}), 70, false},
		// Widths 32, 64, 128: a tile's eight output rows cover 32 input rows.
		{"unequal widths", configEngine(t, KernelAuto, []int{1, 2, 4}, []int{8, 4}), 64, true},
		{"one layer", configEngine(t, KernelCSC, nil, []int{64}), 70, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, w0 := c.e, c.e.layers[0].Rows()
			e.cap = 0 // a second pass would saturate at it, and every row look alike
			onPool(t, e, 2)
			batch, err := dataset.SparseBatch(c.rows, w0, w0/2, 11)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Infer(batch)
			if err != nil {
				t.Fatal(err)
			}
			again, err := sparse.DenseFromSlice(c.rows, w0, out.Data()[:c.rows*w0])
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.ReferenceInfer(again)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Infer(again)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "own output fed back", got, want)
			if staged := cap(e.stage) > 0; staged != c.staged {
				t.Fatalf("input staged: %t, want %t", staged, c.staged)
			}
		})
	}
}

func TestInferZeroAllocSteadyState(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := smallEngine(t)
		onPool(t, e, workers)
		batch, err := dataset.SparseBatch(40, 16, 5, 13) // a tile and a quarter
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Infer(batch); err != nil { // size the buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := e.Infer(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Infer on %d workers allocated %g objects per op, want 0", workers, allocs)
		}
	}
}

func TestInferWidthError(t *testing.T) {
	e := smallEngine(t)
	bad, _ := sparse.NewDense(2, 7)
	if _, err := e.Infer(bad); err == nil {
		t.Fatal("wrong batch width accepted")
	}
	if _, err := e.ReferenceInfer(bad); err == nil {
		t.Fatal("wrong batch width accepted by reference")
	}
}

func TestReLUAndCapSemantics(t *testing.T) {
	// Single layer, identity pattern, weight 1: y = clamp(relu(x + bias)).
	m := sparse.MatrixFromPattern(sparse.Identity(3), 1)
	e, err := New([]*sparse.Matrix{m}, []float64{-1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sparse.DenseFromSlice(1, 3, []float64{0.5, 1.5, 10})
	y, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 2} // relu(-0.5)=0, relu(0.5)=0.5, min(9,2)=2
	for i, w := range want {
		if y.At(0, i) != w {
			t.Fatalf("y[%d] = %g, want %g", i, y.At(0, i), w)
		}
	}
}

func TestZeroCapDisablesClamp(t *testing.T) {
	m := sparse.MatrixFromPattern(sparse.Identity(2), 1)
	e, err := New([]*sparse.Matrix{m}, []float64{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sparse.DenseFromSlice(1, 2, []float64{100, 1})
	y, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0, 0) != 100 {
		t.Fatalf("cap=0 should not clamp; got %g", y.At(0, 0))
	}
}

func TestPositiveBiasResurrectsDeadRows(t *testing.T) {
	// Layer 1 kills every activation (large negative bias); layer 2's
	// positive bias must resurrect the rows as constant clamp(bias), exactly
	// as the reference computes.
	m := sparse.MatrixFromPattern(sparse.Identity(3), 1)
	e, err := New([]*sparse.Matrix{m, m, m}, []float64{-100, 0.75, -0.25}, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := sparse.DenseFromSlice(2, 3, []float64{1, 2, 3, 0, 0, 0})
	got, err := e.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.ReferenceInfer(x)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := got.MaxAbsDiff(want)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("resurrection path diff %g", diff)
	}
	// relu(relu(0·w - 100)·w + 0.75) = 0.75; relu(0.75 - 0.25) = 0.5.
	if got.At(0, 0) != 0.5 {
		t.Fatalf("resurrected activation = %g, want 0.5", got.At(0, 0))
	}
}

func TestDeadRowsAreZeroedInOutput(t *testing.T) {
	// A row that dies mid-stack must come back as explicit zeros, not stale
	// buffer contents from an earlier call.
	m := sparse.MatrixFromPattern(sparse.Identity(2), 1)
	e, err := New([]*sparse.Matrix{m, m}, []float64{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := sparse.DenseFromSlice(2, 2, []float64{5, 5, 7, 7})
	if _, err := e.Infer(full); err != nil { // dirty the buffers
		t.Fatal(err)
	}
	mixed, _ := sparse.DenseFromSlice(2, 2, []float64{0, 0, 1, 1})
	out, err := e.Infer(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 {
		t.Fatalf("dead row carries stale values: %v %v", out.At(0, 0), out.At(0, 1))
	}
	if out.At(1, 0) != 1 || out.At(1, 1) != 1 {
		t.Fatalf("live row wrong: %v %v", out.At(1, 0), out.At(1, 1))
	}
}

func TestInferVaryingBatchSizes(t *testing.T) {
	// One engine serving batches of different sizes must resize its
	// ping-pong state correctly in both directions.
	e := smallEngine(t)
	for _, rows := range []int{4, 16, 2, 16, 4} {
		batch, err := dataset.SparseBatch(rows, 16, 4, int64(rows))
		if err != nil {
			t.Fatal(err)
		}
		fast, err := e.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := e.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := fast.MaxAbsDiff(slow)
		if err != nil {
			t.Fatal(err)
		}
		if diff >= 1e-12 {
			t.Fatalf("batch %d: diff %g", rows, diff)
		}
	}
}

func TestFromConfigGraphChallengeShape(t *testing.T) {
	cfg, err := core.GraphChallengeConfig(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumLayers() != 4 {
		t.Fatalf("layers = %d", e.NumLayers())
	}
	if e.TotalNNZ() != 4*1024*32 {
		t.Fatalf("nnz = %d, want %d", e.TotalNNZ(), 4*1024*32)
	}
	batch, err := dataset.SparseBatch(8, 1024, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if y.Rows() != 8 || y.Cols() != 1024 {
		t.Fatal("output shape wrong")
	}
}

func TestInferCategories(t *testing.T) {
	e := smallEngine(t)
	batch, err := dataset.SparseBatch(6, 16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	active, argmax, err := e.InferCategories(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 6 || len(argmax) != 6 {
		t.Fatal("category output length wrong")
	}
	for i, a := range argmax {
		if a < 0 || a >= 16 {
			t.Fatalf("argmax[%d] = %d out of range", i, a)
		}
	}
}

func TestPerturbWeightsChangesOutput(t *testing.T) {
	e := smallEngine(t)
	batch, _ := dataset.SparseBatch(4, 16, 4, 3)
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	before := out.Clone() // Infer returns a reusable view
	e.PerturbWeights(0.05, 7)
	after, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	diff, _ := before.MaxAbsDiff(after)
	if diff == 0 {
		t.Fatal("perturbation had no effect")
	}
	// The kernels must track the perturbed weights, not the originals.
	slow, err := e.ReferenceInfer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := after.MaxAbsDiff(slow); diff >= 1e-12 {
		t.Fatalf("kernels out of sync with perturbed weights: diff %g", diff)
	}
}

func TestRefreshWeightsResyncsKernels(t *testing.T) {
	// Weights mutated through matrices retained from before New take effect
	// after RefreshWeights — and the refreshed engine matches the oracle,
	// which always reads the matrices live.
	pat := sparse.SumOfShifts(6, []int{0, 2})
	m := sparse.MatrixFromPattern(pat, 0.5)
	e, err := New([]*sparse.Matrix{m}, []float64{-0.05}, 8)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SparseBatch(3, 6, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	before := out.Clone()
	vals := m.Values()
	for i := range vals {
		vals[i] *= 1.7
	}
	e.RefreshWeights()
	after, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := before.MaxAbsDiff(after); diff == 0 {
		t.Fatal("RefreshWeights had no effect on Infer")
	}
	slow, err := e.ReferenceInfer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := after.MaxAbsDiff(slow); diff >= 1e-12 {
		t.Fatalf("refreshed engine diverges from oracle: diff %g", diff)
	}
}

func TestDeepInferenceStability(t *testing.T) {
	// 120 layers at Graph Challenge weighting must neither explode nor die
	// for typical sparse inputs: some activation must survive to the end.
	cfg, err := core.GraphChallengeConfig(1024, 120)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SparseBatch(2, 1024, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	active, _, err := e.InferCategories(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range active {
		if !a {
			t.Fatalf("row %d died across 120 layers; weighting is miscalibrated", i)
		}
	}
}
