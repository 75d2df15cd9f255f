package infer

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// gcEngines builds Graph Challenge 1024×layers as a KernelAuto engine and
// on the CSC oracle.
func gcEngines(t *testing.T, layers int) (auto, csc *Engine) {
	t.Helper()
	return stackEngines(t, repeat([]int{32, 32}, layers/2)...)
}

// inferProfiled runs one profiled batch and returns a copy of the output. What
// ran is observed, not assumed: the engine's own profiler must count a
// quotient batch on exactly the layers the numbering bound to quotients, and
// on no other.
func inferProfiled(t *testing.T, e *Engine, batch *sparse.Dense) *sparse.Dense {
	t.Helper()
	e.EnableProfiling(1)
	defer e.DisableProfiling()
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Profile()
	for l, q := range ranQuotients(t, snap) {
		if q != e.steps[l].needs().quotient {
			t.Fatalf("layer %d ran as a quotient: %t; its step says %t", l, q, !q)
		}
	}
	return out.Clone()
}

// mustInfer returns a copy of e's output on batch.
func mustInfer(t testing.TB, e *Engine, batch *sparse.Dense) *sparse.Dense {
	t.Helper()
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	return out.Clone()
}

// TestFormsFollowWeights is the stale-binding regression: the numbering runs
// again on RefreshWeights and rebinds the steps every clone shares, so weight
// mutation through the engine or through a clone puts every quotient layer back
// on its per-column step the moment its values stop numbering into fewer
// classes than columns, and writing the value back restores them all. A
// binding cached per engine would keep sharing chains and return wrong
// activations without any error.
func TestFormsFollowWeights(t *testing.T) {
	batch, err := dataset.SparseBatch(24, 1024, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, through := range []string{"engine", "clone"} {
		t.Run(through, func(t *testing.T) {
			auto, csc := gcEngines(t, 4)
			mutate := auto // the engine whose methods change the weights
			other := auto.Clone()
			if through == "clone" {
				mutate, other = other, mutate
			}
			check := func(what string, quotients int, want *sparse.Dense) {
				t.Helper()
				for _, e := range []*Engine{mutate, other} {
					if e.QuotientLayers() != quotients {
						t.Fatalf("%s: %d quotient layers, want %d", what, e.QuotientLayers(), quotients)
					}
					sameBits(t, what, inferProfiled(t, e, batch), want)
				}
			}
			want := mustInfer(t, csc, batch)
			check("fresh", 3, want)

			w := auto.layers[0].Values()[0]
			mutate.PerturbWeights(0.01, 1)
			csc.PerturbWeights(0.01, 1)
			check("perturbed", 0, mustInfer(t, csc, batch))

			for _, e := range []*Engine{auto, csc} {
				for _, l := range e.layers {
					vals := l.Values()
					for i := range vals {
						vals[i] = w
					}
				}
			}
			mutate.RefreshWeights()
			csc.RefreshWeights()
			check("restored", 3, want)
		})
	}
}

// TestSpecialElementsAgree: a Graph Challenge batch through 1024×24 and
// 1024×120 equals the CSC engine bit for bit, every layer past the first on
// its quotient; so does, through
// 1024×24, the same batch with eight rows made dense and one element of them
// special — subnormal, MaxFloat64, NaN, +Inf — so that it reaches a layer-0
// quad.
func TestSpecialElementsAgree(t *testing.T) {
	for _, layers := range []int{24, 120} {
		auto, csc := gcEngines(t, layers)
		batch, err := dataset.SparseBatch(64, 1024, 102, 1)
		if err != nil {
			t.Fatal(err)
		}
		if auto.QuotientLayers() != layers-1 {
			t.Errorf("1024×%d: %d quotient layers, want %d", layers, auto.QuotientLayers(), layers-1)
		}
		sameBits(t, fmt.Sprintf("1024×%d", layers), inferProfiled(t, auto, batch), mustInfer(t, csc, batch))
		if layers == 120 {
			continue // the single-element cases need no second depth
		}
		for _, bad := range []float64{5e-324, 1e-310, math.MaxFloat64, math.NaN(), math.Inf(1)} {
			hit := batch.Clone()
			for r := 8; r < 16; r++ {
				row := hit.RowSlice(r)
				for c := range row {
					row[c] = 0.5
				}
			}
			hit.RowSlice(9)[700] = bad
			sameBits(t, fmt.Sprintf("one element = %v", bad), inferProfiled(t, auto, hit), mustInfer(t, csc, hit))
		}
	}
}

// atExponent returns a 10-row batch — eight fully dense rows, which gather
// through layer-0 quads, and two sparse ones — whose nonzero elements all
// carry biased exponent e (e = 0 makes them subnormal).
func atExponent(t *testing.T, e int) *sparse.Dense {
	t.Helper()
	batch, err := dataset.SparseBatch(10, 1024, 102, 7)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := dataset.SparseBatch(8, 1024, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(batch.Data(), dense.Data())
	for i, v := range batch.Data() {
		frac, _ := math.Frexp(v) // [0.5, 1), or 0
		batch.Data()[i] = math.Ldexp(frac, e-1022)
	}
	return batch
}

// TestBinadeEdgesAgree: on Graph Challenge 1024×24 and 1024×120, with the cap
// on and off and with the challenge's bias and a zero one, batches whose
// elements all sit in one binade equal the CSC engine bit for bit — the
// subnormals, the lowest and the highest normal binade, where products round
// and sums overflow, and the binades either side of each edge of the input
// window a uniform-weight octet would need on that stack (its lower edge rises
// with depth under a zero bias, its upper falls uncapped).
func TestBinadeEdgesAgree(t *testing.T) {
	for _, c := range []struct {
		layers    int
		cap, bias float64
		lo, hi    int // the old window's edges, as biased exponents
	}{
		{24, 32, -0.1, 4, 2039},
		{24, 32, 0, 73, 2039},
		{24, 0, -0.1, 4, 1947},
		{24, 0, 0, 73, 1947},
		{120, 32, -0.1, 4, 2039},
		{120, 32, 0, 361, 2039},
		{120, 0, -0.1, 4, 1563},
	} {
		auto, csc := gcEngines(t, c.layers)
		for _, e := range []*Engine{auto, csc} {
			e.cap = c.cap
			for i := range e.bias {
				e.bias[i] = c.bias
			}
		}
		for _, exp := range []int{0, 1, c.lo - 1, c.lo, c.hi, c.hi + 1, 2046} {
			batch := atExponent(t, exp)
			name := fmt.Sprintf("1024×%d cap %v bias %v, exponent %d", c.layers, c.cap, c.bias, exp)
			sameBits(t, name, inferProfiled(t, auto, batch), mustInfer(t, csc, batch))
		}
	}
}

// TestPowerOfTwoStacksAgree: 300 random stacks away from the 4/fan-in every
// config-built engine has — per-layer weights 2^k on both sides of 1, down to
// 2^−300 and up to 2^300, biases of either sign down to the subnormals, tiny and
// absent caps — fed batches whose elements spread over every binade from the
// subnormals to the highest, ends included and signs mixed, must equal the CSC
// engine bit for bit.
func TestPowerOfTwoStacksAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	draw := rand.New(rand.NewSource(^53)) // the batches, so rng draws the stacks it always drew
	for trial := 0; trial < 300; trial++ {
		radices := [][]int{{8, 8}, {4, 4, 4}, {2, 32}, {16, 4}, {32, 2}, {2, 2, 2, 2, 2, 2}}[rng.Intn(6)]
		cfg, err := core.NewConfig([]radix.System{radix.MustNew(radices...)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		csc, err := FromConfigKernel(cfg, KernelCSC)
		if err != nil {
			t.Fatal(err)
		}
		cap := []float64{0, 32, 0x1p-40, 0x1p900}[rng.Intn(4)]
		var ks []int
		for l := range auto.layers {
			k := rng.Intn(13) - 8
			if rng.Intn(8) == 0 {
				k = []int{-300, 300}[rng.Intn(2)]
			}
			ks = append(ks, k)
			bias := []float64{-0.3, 0, 0.2, 1e-300, -1e-3, -0x1p-600, 1e-310}[rng.Intn(7)]
			for _, e := range []*Engine{auto, csc} {
				e.cap, e.bias[l] = cap, bias
				vals := e.layers[l].Values()
				for i := range vals {
					vals[i] = math.Ldexp(1, k)
				}
			}
		}
		auto.RefreshWeights()
		csc.RefreshWeights()
		width := cfg.LayerWidths()[0]
		batch, err := sparse.NewDense(12, width)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch.Data() {
			if i >= 9*width && draw.Intn(4) > 0 {
				continue // three sparser rows after nine dense ones
			}
			e := []int{0, 2046, draw.Intn(2047)}[draw.Intn(3)]
			batch.Data()[i] = math.Ldexp(0.5+draw.Float64()/2, e-1022) * float64(1-2*draw.Intn(2))
		}
		name := fmt.Sprintf("trial %d: %v weights 2^%v bias %v cap %v", trial, radices, ks, auto.bias, cap)
		sameBits(t, name, inferProfiled(t, auto, batch), mustInfer(t, csc, batch))
		if t.Failed() {
			return
		}
	}
}

// TestClosedFollowsWeights (run it under -race): one edge of a closing layer
// written — through a clone's matrices, picked up by RefreshWeights, seen by
// every clone — splits its column off its class, and the opening layer's
// classes behind it; the other closing layer, complete within each residue
// class, keeps its 32. Writing the value back joins them again. Two clones infer concurrently before, between and after; all of
// it equals the CSC engine and ReferenceInfer bit for bit, on quotients
// throughout. 13 rows: three quads and a single through every gather.
func TestClosedFollowsWeights(t *testing.T) {
	auto, csc := gcEngines(t, 4)
	a, b := auto.Clone(), auto.Clone()
	batch, err := dataset.SparseBatch(13, 1024, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch.RowSlice(3)[17] = math.MaxFloat64 // one extreme element among ordinary ones
	const layer, edge = 1, 4097
	w := auto.layers[layer].Values()[edge]
	for _, c := range []struct {
		what    string
		v       float64
		classes []int
	}{
		{"one weight", w, []int{1024, 32, 32, 32}},
		{"one edge of layer 1 doubled", 2 * w, []int{1024, 33, 64, 32}},
		{"restored", w, []int{1024, 32, 32, 32}},
	} {
		a.layers[layer].Values()[edge] = c.v
		csc.layers[layer].Values()[edge] = c.v
		a.RefreshWeights()
		csc.RefreshWeights()
		if got := classes(b); fmt.Sprint(got) != fmt.Sprint(c.classes) {
			t.Errorf("%s: the clone that did not write numbers %v classes, want %v", c.what, got, c.classes)
		}
		want := mustInfer(t, csc, batch)
		ref, err := b.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, c.what+": reference", ref, want)
		var wg sync.WaitGroup
		for name, e := range map[string]*Engine{"clone a": a, "clone b": b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := e.Infer(batch)
				if err != nil {
					t.Error(name, err)
					return
				}
				sameBits(t, c.what+": "+name, out, want)
			}()
		}
		wg.Wait()
		// What ran, from the profiler of the clone that did not write.
		sameBits(t, c.what+": profiled", inferProfiled(t, b, batch), want)
	}
}
