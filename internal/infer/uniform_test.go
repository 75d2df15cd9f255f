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

// inferCounting runs one profiled batch and returns a copy of the output with
// the number of layers that ran their uniform-weight binding on it, as the
// engine's own profiler counted them — the fast path is observed, not assumed.
// A closed layer runs class sums on every batch and an opening layer behind one
// periodic gathers, never the uniform binding: the profile must say so for
// exactly the layers whose kernels report Closed and that followsClosed picks.
func inferCounting(t *testing.T, e *Engine, batch *sparse.Dense) (*sparse.Dense, int) {
	t.Helper()
	e.EnableProfiling(1)
	defer e.DisableProfiling()
	out, err := e.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Profile()
	ran := 0
	for _, l := range snap.Layers {
		if l.Batches != 1 {
			t.Fatalf("layer %d profiled %d batches, want 1", l.Layer, l.Batches)
		}
		ran += int(l.Uniform)
		closed := e.radix != nil && e.radix[l.Layer].Closed()
		periodic := followsClosed(e, l.Layer)
		if (l.ClassSum == 1) != closed || (l.Periodic == 1) != periodic || l.ClassSum+l.Periodic+l.Uniform > 1 {
			t.Fatalf("layer %d (closed %t, follows a closed layer %t) profiled %d class-sum, %d periodic and %d uniform batches",
				l.Layer, closed, periodic, l.ClassSum, l.Periodic, l.Uniform)
		}
	}
	return out.Clone(), ran
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

// openLayers is how many of e's first n layers are neither closed nor periodic:
// the ones an in-window batch runs on the uniform-weight binding — layer 0 and
// the middle digits of a config-built stack.
func openLayers(e *Engine, n int) int {
	open := 0
	for l, rk := range e.radix[:n] {
		if !rk.Closed() && !followsClosed(e, l) {
			open++
		}
	}
	return open
}

// windowExps is exactWindow in the units the tests think in: the layers it
// admits and the lowest and highest biased exponent a nonzero input may carry.
func windowExps(e *Engine) (n, loE, hiE int) {
	n, lo, hi := e.exactWindow()
	return n, int((lo + 1) >> 53), int(hi>>53) - 1
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

// TestUniformLayersReport: every config-built Stockham stack binds all its
// layers uniform (the weight is 4/fan-in, a power of two on power-of-two
// radices); no other engine binds any.
func TestUniformLayersReport(t *testing.T) {
	gc120, csc := gcEngines(t, 120)
	if got := gc120.UniformLayers(); got != 120 {
		t.Errorf("Graph Challenge 1024×120: %d uniform layers, want 120", got)
	}
	if got := csc.UniformLayers(); got != 0 {
		t.Errorf("CSC engine: %d uniform layers, want 0", got)
	}
	r888, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromConfig(r888)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.UniformLayers(); got != 3 {
		t.Errorf("radix (8,8,8): %d uniform layers, want 3", got)
	}
	e.PerturbWeights(0.01, 1)
	if got := e.UniformLayers(); got != 0 {
		t.Errorf("radix (8,8,8) perturbed: %d uniform layers, want 0", got)
	}
	lifted, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if e, err = FromConfig(lifted); err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != KernelRadix || e.UniformLayers() != 0 {
		t.Errorf("lifted (4,4): kernel %v with %d uniform layers, want radix with 0", e.Kernel(), e.UniformLayers())
	}

	// One weight per layer is not enough: it must be a positive power of two.
	g, err := core.Build(r888)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := dataset.SparseBatch(16, 512, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.3, -0.5} {
		oracle, err := FromTopology(g, w, 0.05, 32)
		if err != nil {
			t.Fatal(err)
		}
		e, err := FromTopology(g, w, 0.05, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.compileRadixPlans(r888); err != nil {
			t.Fatal(err)
		}
		if !e.radix[0].Stockham() || e.UniformLayers() != 0 {
			t.Errorf("weight %v on a Stockham stack: %d uniform layers, want 0", w, e.UniformLayers())
		}
		got, ran := inferCounting(t, e, batch)
		if ran != 0 {
			t.Errorf("weight %v: %d layers ran the uniform binding", w, ran)
		}
		sameBits(t, fmt.Sprintf("weight %v", w), got, mustInfer(t, oracle, batch))
	}
}

// TestUniformBitFollowsWeights is the stale-bit regression: the uniform bit
// lives with the kernel every clone shares, so weight mutation through the
// engine or through a clone drops every layer to the weighted binding the
// moment its values stop being one power of two, and writing the value back
// restores it. A bit cached per engine would keep summing unweighted and
// return wrong activations without any error.
func TestUniformBitFollowsWeights(t *testing.T) {
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
			want := mustInfer(t, csc, batch)
			for _, e := range []*Engine{mutate, other} {
				got, ran := inferCounting(t, e, batch)
				if ran != 1 || e.ClosedLayers() != 2 || e.PeriodicLayers() != 1 {
					t.Fatalf("fresh engine ran %d layers uniform with %d closed and %d periodic, want 1 (layer 0), 2 and 1", ran, e.ClosedLayers(), e.PeriodicLayers())
				}
				sameBits(t, "fresh", got, want)
			}

			w := rad.layers[0].Values()[0]
			mutate.PerturbWeights(0.01, 1)
			csc.PerturbWeights(0.01, 1)
			wantPerturbed := mustInfer(t, csc, batch)
			for _, e := range []*Engine{mutate, other} {
				if e.UniformLayers() != 0 {
					t.Fatalf("perturbed: %d uniform layers, want 0", e.UniformLayers())
				}
				got, ran := inferCounting(t, e, batch)
				if ran != 0 || e.ClosedLayers() != 0 || e.PeriodicLayers() != 0 {
					t.Fatalf("perturbed engine ran %d layers uniform, %d closed, %d periodic", ran, e.ClosedLayers(), e.PeriodicLayers())
				}
				sameBits(t, "perturbed", got, wantPerturbed)
			}

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
			for _, e := range []*Engine{mutate, other} {
				if e.UniformLayers() != 4 {
					t.Fatalf("restored: %d uniform layers, want 4", e.UniformLayers())
				}
				got, ran := inferCounting(t, e, batch)
				if ran != 1 || e.ClosedLayers() != 2 || e.PeriodicLayers() != 1 {
					t.Fatalf("restored engine ran %d layers uniform with %d closed and %d periodic, want 1 (layer 0), 2 and 1", ran, e.ClosedLayers(), e.PeriodicLayers())
				}
				sameBits(t, "restored", got, want)
			}
		})
	}
}

// TestUniformGuardOutcomes: a Graph Challenge batch takes the uniform
// binding on its one open layer, layer 0 (the closing half sums classes and the
// opening layers behind them gather periodically, whatever the batch); the same
// batch with one element outside any correct window — subnormal, MaxFloat64,
// NaN, +Inf — takes the weighted one there, and either way the output is the
// CSC engine's bit for bit.
func TestUniformGuardOutcomes(t *testing.T) {
	for _, layers := range []int{24, 120} {
		rad, csc := gcEngines(t, layers)
		batch, err := dataset.SparseBatch(64, 1024, 102, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, ran := inferCounting(t, rad, batch)
		if ran != 1 || rad.ClosedLayers() != layers/2 || rad.PeriodicLayers() != layers/2-1 {
			t.Errorf("1024×%d: %d layers ran uniform on a SparseBatch batch, %d are closed and %d periodic, want 1, %d and %d",
				layers, ran, rad.ClosedLayers(), rad.PeriodicLayers(), layers/2, layers/2-1)
		}
		sameBits(t, fmt.Sprintf("1024×%d", layers), got, mustInfer(t, csc, batch))
		if layers == 120 {
			continue // the single-element cases need no second depth
		}
		for _, bad := range []float64{5e-324, 1e-310, math.MaxFloat64, math.NaN(), math.Inf(1)} {
			// Eight dense rows, so the element reaches a layer-0 octet if
			// the guard lets it.
			hit := batch.Clone()
			for r := 8; r < 16; r++ {
				row := hit.RowSlice(r)
				for c := range row {
					row[c] = 0.5
				}
			}
			hit.RowSlice(9)[700] = bad
			got, ran := inferCounting(t, rad, hit)
			if ran != 0 {
				t.Errorf("one element = %v: %d layers ran uniform, want 0", bad, ran)
			}
			sameBits(t, fmt.Sprintf("one element = %v", bad), got, mustInfer(t, csc, hit))
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

// TestUniformWindowEdges is the deterministic twin of the fuzz target's
// window draws at depths the fuzz decoder cannot reach: on Graph Challenge
// 1024×24 and 1024×120, with the cap on and off (off, magnitudes may grow
// every layer, so the upper edge falls with depth) and with the challenge's
// bias and a zero one (zero, granularity is lost every layer, so the lower
// edge rises with depth), a batch one binade inside each edge runs every open
// layer uniform, one a binade outside runs none, and all four equal the CSC
// engine bit for bit.
func TestUniformWindowEdges(t *testing.T) {
	type edges struct{ lo, hi int }
	seen := map[string]edges{}
	for _, layers := range []int{24, 120} {
		for _, cap := range []float64{32, 0} {
			for _, bias := range []float64{-0.10, 0} {
				if layers == 120 && cap == 0 && bias == 0 {
					continue // both depth terms at once: nothing the other three lack
				}
				rad, csc := gcEngines(t, layers)
				for _, e := range []*Engine{rad, csc} {
					e.cap = cap
					for i := range e.bias {
						e.bias[i] = bias
					}
				}
				name := fmt.Sprintf("1024×%d cap %v bias %v", layers, cap, bias)
				n, loE, hiE := windowExps(rad)
				if n != layers {
					t.Fatalf("%s: window covers %d layers", name, n)
				}
				seen[fmt.Sprintf("cap %v bias %v ×%d", cap, bias, layers)] = edges{loE, hiE}
				for _, c := range []struct {
					what   string
					exp    int
					inside bool
				}{
					{"inside lower edge", loE, true},
					{"outside lower edge", loE - 1, false},
					{"inside upper edge", hiE, true},
					{"outside upper edge", hiE + 1, false},
				} {
					batch := atExponent(t, c.exp)
					got, ran := inferCounting(t, rad, batch)
					if want := map[bool]int{true: openLayers(rad, layers), false: 0}[c.inside]; ran != want {
						t.Errorf("%s, %s (exponent %d): %d layers ran uniform, want %d", name, c.what, c.exp, ran, want)
					}
					sameBits(t, name+", "+c.what, got, mustInfer(t, csc, batch))
				}
			}
		}
	}
	// The depth terms are there, and only where the argument needs them.
	for _, c := range []struct {
		shallow, deep string
		lo, hi        int // deep minus shallow
	}{
		{"cap 32 bias -0.1 ×24", "cap 32 bias -0.1 ×120", 0, 0},
		{"cap 32 bias 0 ×24", "cap 32 bias 0 ×120", 3 * 96, 0},
		{"cap 0 bias -0.1 ×24", "cap 0 bias -0.1 ×120", 0, -4 * 96},
	} {
		s, d := seen[c.shallow], seen[c.deep]
		if d.lo-s.lo != c.lo || d.hi-s.hi != c.hi {
			t.Errorf("%s %+v → %s %+v: edges moved by (%d, %d), want (%d, %d)",
				c.shallow, s, c.deep, d, d.lo-s.lo, d.hi-s.hi, c.lo, c.hi)
		}
	}
}

// TestUniformWindowRandomStacks checks the window's derivation away from the
// 4/fan-in every config-built engine has: per-layer weights 2^k on both sides
// of 1, biases of either sign down to the subnormals, tiny and absent caps.
// Whatever window the engine derives, a batch whose elements are spread over
// all of it, edges included and signs mixed, must run every admitted open
// layer uniform and still equal the CSC engine bit for bit.
func TestUniformWindowRandomStacks(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	open := 0
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
		n, loE, hiE := windowExps(rad)
		if n == 0 {
			continue
		}
		open++
		width := cfg.LayerWidths()[0]
		batch, err := sparse.NewDense(12, width)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch.Data() {
			if i >= 9*width && rng.Intn(4) > 0 {
				continue // three sparser rows after nine dense ones
			}
			e := []int{loE, hiE, loE + rng.Intn(hiE-loE+1)}[rng.Intn(3)]
			batch.Data()[i] = math.Ldexp(0.5+rng.Float64()/2, e-1022) * float64(1-2*rng.Intn(2))
		}
		name := fmt.Sprintf("trial %d: %v weights 2^%v bias %v cap %v, exponents [%d, %d]", trial, radices, ks, rad.bias, cap, loE, hiE)
		got, ran := inferCounting(t, rad, batch)
		if ran != openLayers(rad, n) {
			t.Fatalf("%s: %d layers ran uniform, window admits %d of which %d open", name, ran, n, openLayers(rad, n))
		}
		sameBits(t, name, got, mustInfer(t, csc, batch))
		if t.Failed() {
			return
		}
	}
	if open < 100 {
		t.Errorf("only %d of 300 random stacks had a window; the draw no longer tests it", open)
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
	batch.RowSlice(3)[17] = math.MaxFloat64 // outside exactWindow: the open layers run weighted
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
			if (lp.ClassSum == 1) != c.closed[l] || lp.Uniform != 0 {
				t.Errorf("%s: layer %d ran %d class-sum and %d uniform batches, want closed = %t", c.what, l, lp.ClassSum, lp.Uniform, c.closed[l])
			}
		}
	}
}
