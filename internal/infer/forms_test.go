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

// gcEngines builds Graph Challenge 1024×layers on the auto (Stockham) family
// and on the CSC oracle.
func gcEngines(t *testing.T, layers int) (rad, csc *Engine) {
	t.Helper()
	return stackEngines(t, repeat([]int{32, 32}, layers/2)...)
}

// inferProfiled runs one profiled batch and returns a copy of the output. What
// ran is observed, not assumed: the engine's own profiler must count class sums
// on exactly the layers whose kernels report Closed, periodic gathers on
// exactly those followsClosed picks, and the per-column forms everywhere else.
func inferProfiled(t *testing.T, e *Engine, batch *sparse.Dense) *sparse.Dense {
	t.Helper()
	e.EnableProfiling(1)
	defer e.DisableProfiling()
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Profile()
	for l, f := range ranForms(t, snap) {
		want := perColumn
		if e.radix != nil && e.radix[l].Closed() {
			want = classSums
		} else if followsClosed(e, l) {
			want = periodicRows
		}
		if f != want {
			t.Fatalf("layer %d ran form %d, its kernels say %d", l, f, want)
		}
	}
	return out.Clone()
}

// followsClosed says, from the kernels alone, whether layer l gathers
// periodically: a Stockham opening layer with one weight, not itself closing,
// behind a closed layer whose place value its radix divides.
func followsClosed(e *Engine, l int) bool {
	if e.radix == nil || l == 0 {
		return false
	}
	rk, p := e.radix[l], e.radix[l].Plan()
	return e.radix[l-1].Closed() && rk.OneWeight() && p.PlaceValue() == 1 && p.Radix() < p.NPrime() &&
		e.radix[l-1].Plan().PlaceValue()%p.Radix() == 0
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

// TestFormsFollowWeights is the stale-bit regression: the one-weight bit lives
// with the kernel every clone shares, so weight mutation through the engine or
// through a clone takes the closing layers off the class sums and the opening
// layer behind them off the periodic gather the moment their values stop being
// equal, and writing the value back restores both. A bit cached per engine
// would keep sharing chains and return wrong activations without any error.
func TestFormsFollowWeights(t *testing.T) {
	batch, err := dataset.SparseBatch(24, 1024, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, through := range []string{"engine", "clone"} {
		t.Run(through, func(t *testing.T) {
			rad, csc := gcEngines(t, 4)
			mutate := rad // the engine whose methods change the weights
			other := rad.Clone()
			if through == "clone" {
				mutate, other = other, mutate
			}
			check := func(what string, closed, periodic int, want *sparse.Dense) {
				t.Helper()
				for _, e := range []*Engine{mutate, other} {
					if e.ClosedLayers() != closed || e.PeriodicLayers() != periodic {
						t.Fatalf("%s: %d closed and %d periodic layers, want %d and %d", what, e.ClosedLayers(), e.PeriodicLayers(), closed, periodic)
					}
					sameBits(t, what, inferProfiled(t, e, batch), want)
				}
			}
			want := mustInfer(t, csc, batch)
			check("fresh", 2, 1, want)

			w := rad.layers[0].Values()[0]
			mutate.PerturbWeights(0.01, 1)
			csc.PerturbWeights(0.01, 1)
			check("perturbed", 0, 0, mustInfer(t, csc, batch))

			for _, e := range []*Engine{rad, csc} {
				for _, l := range e.layers {
					vals := l.Values()
					for i := range vals {
						vals[i] = w
					}
				}
			}
			mutate.RefreshWeights()
			csc.RefreshWeights()
			check("restored", 2, 1, want)
		})
	}
}

// TestSpecialElementsAgree: a Graph Challenge batch through 1024×24 and
// 1024×120 equals the CSC engine bit for bit, the closing half summing classes
// and the opening layers behind them gathering periodically; so does, through
// 1024×24, the same batch with eight rows made dense and one element of them
// special — subnormal, MaxFloat64, NaN, +Inf — so that it reaches a layer-0
// octet.
func TestSpecialElementsAgree(t *testing.T) {
	for _, layers := range []int{24, 120} {
		rad, csc := gcEngines(t, layers)
		batch, err := dataset.SparseBatch(64, 1024, 102, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rad.ClosedLayers() != layers/2 || rad.PeriodicLayers() != layers/2-1 {
			t.Errorf("1024×%d: %d closed and %d periodic layers, want %d and %d",
				layers, rad.ClosedLayers(), rad.PeriodicLayers(), layers/2, layers/2-1)
		}
		sameBits(t, fmt.Sprintf("1024×%d", layers), inferProfiled(t, rad, batch), mustInfer(t, csc, batch))
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
			sameBits(t, fmt.Sprintf("one element = %v", bad), inferProfiled(t, rad, hit), mustInfer(t, csc, hit))
		}
	}
}

// atExponent returns a 10-row batch — eight fully dense rows, which gather
// through layer-0 octets, and two sparse ones — whose nonzero elements all
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
		rad, csc := gcEngines(t, c.layers)
		for _, e := range []*Engine{rad, csc} {
			e.cap = c.cap
			for i := range e.bias {
				e.bias[i] = c.bias
			}
		}
		for _, exp := range []int{0, 1, c.lo - 1, c.lo, c.hi, c.hi + 1, 2046} {
			batch := atExponent(t, exp)
			name := fmt.Sprintf("1024×%d cap %v bias %v, exponent %d", c.layers, c.cap, c.bias, exp)
			sameBits(t, name, inferProfiled(t, rad, batch), mustInfer(t, csc, batch))
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
		rad, err := FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		csc, err := FromConfigKernel(cfg, KernelCSC)
		if err != nil {
			t.Fatal(err)
		}
		cap := []float64{0, 32, 0x1p-40, 0x1p900}[rng.Intn(4)]
		var ks []int
		for l := range rad.layers {
			k := rng.Intn(13) - 8
			if rng.Intn(8) == 0 {
				k = []int{-300, 300}[rng.Intn(2)]
			}
			ks = append(ks, k)
			bias := []float64{-0.3, 0, 0.2, 1e-300, -1e-3, -0x1p-600, 1e-310}[rng.Intn(7)]
			for _, e := range []*Engine{rad, csc} {
				e.cap, e.bias[l] = cap, bias
				vals := e.layers[l].Values()
				for i := range vals {
					vals[i] = math.Ldexp(1, k)
				}
			}
		}
		rad.RefreshWeights()
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
		name := fmt.Sprintf("trial %d: %v weights 2^%v bias %v cap %v", trial, radices, ks, rad.bias, cap)
		sameBits(t, name, inferProfiled(t, rad, batch), mustInfer(t, csc, batch))
		if t.Failed() {
			return
		}
	}
}

// TestClosedFollowsWeights (run it under -race): a closing layer leaves the
// class-sum binding the moment one of its edges differs — written through a
// clone's matrices, picked up by RefreshWeights, seen by every clone, the other
// closing layer untouched — and returns to it when the value is written back.
// Two clones infer concurrently before, between and after; all of it equals the
// CSC engine and ReferenceInfer bit for bit. 13 rows: an octet, a quad and a
// single through every gather.
func TestClosedFollowsWeights(t *testing.T) {
	rad, csc := gcEngines(t, 4)
	a, b := rad.Clone(), rad.Clone()
	batch, err := dataset.SparseBatch(13, 1024, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch.RowSlice(3)[17] = math.MaxFloat64 // one extreme element among ordinary ones
	const layer, edge = 1, 4097
	w := rad.layers[layer].Values()[edge]
	for _, c := range []struct {
		what   string
		v      float64
		closed []bool
	}{
		{"one weight", w, []bool{false, true, false, true}},
		{"one edge of layer 1 doubled", 2 * w, []bool{false, false, false, true}},
		{"restored", w, []bool{false, true, false, true}},
	} {
		a.layers[layer].Values()[edge] = c.v
		csc.layers[layer].Values()[edge] = c.v
		a.RefreshWeights()
		csc.RefreshWeights()
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
		b.EnableProfiling(1)
		sameBits(t, c.what+": profiled", mustInfer(t, b, batch), want)
		snap, _ := b.Profile()
		b.DisableProfiling()
		for l, lp := range snap.Layers {
			if (lp.ClassSum == 1) != c.closed[l] {
				t.Errorf("%s: layer %d ran %d class-sum batches, want closed = %t", c.what, l, lp.ClassSum, c.closed[l])
			}
		}
	}
}
