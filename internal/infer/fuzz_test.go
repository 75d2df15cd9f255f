package infer

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// fuzzConfig decodes a byte string into a valid RadiX-Net config; every
// string decodes to one, so the fuzzer's mutations are never wasted on a
// parser. Layout (missing bytes read as 0):
//
//	[0]   first system's length − 1 (mod 3)
//	[..]  that many radices, each an index into a palette that reaches from 2
//	      to 32 so very unequal systems like (2,32) occur; a radix that would
//	      take N′ past 64 is dropped
//	[..]  number of systems − 1 (mod 3), then one byte per extra system:
//	      low bits pick same / reversed / rotated radices (same product), and
//	      bit 2 on the last system drops its first radix, so its product
//	      merely divides N′
//	[..]  Kronecker shape: 0 none, 1 uniform lift by 2, 2 ragged with one byte
//	      per layer boundary (1–3)
func fuzzConfig(spec []byte) (core.Config, error) {
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	palette := []int{2, 3, 4, 5, 8, 16, 32}
	var first []int
	prod := 1
	for n := 1 + next()%3; n > 0; n-- {
		if r := palette[next()%len(palette)]; prod*r <= 64 {
			first = append(first, r)
			prod *= r
		}
	}
	if len(first) == 0 {
		first = []int{2}
	}
	systems := []radix.System{radix.MustNew(first...)}
	for extra, i := next()%3, 0; i < extra; i++ {
		v := next()
		rs := append([]int(nil), first...)
		switch v % 3 {
		case 1:
			for a, b := 0, len(rs)-1; a < b; a, b = a+1, b-1 {
				rs[a], rs[b] = rs[b], rs[a]
			}
		case 2:
			rs = append(rs[1:], rs[0])
		}
		if i == extra-1 && v&4 != 0 && len(rs) > 1 {
			rs = rs[1:]
		}
		systems = append(systems, radix.MustNew(rs...))
	}
	layers := 0
	for _, s := range systems {
		layers += s.Len()
	}
	var shape []int
	switch next() % 3 {
	case 1:
		shape = make([]int, layers+1)
		for i := range shape {
			shape[i] = 2
		}
	case 2:
		shape = make([]int, layers+1)
		for i := range shape {
			shape[i] = 1 + next()%3
		}
	}
	return core.NewConfig(systems, shape)
}

// fuzzEngine builds cfg on the given kernel with the drawn biases, cap and
// weight perturbation. Two calls with the same draws differ only in family.
func fuzzEngine(t *testing.T, cfg core.Config, kind KernelKind, bias []float64, cap float64, seed int64) *Engine {
	t.Helper()
	e, err := FromConfigKernel(cfg, kind)
	if err != nil {
		t.Fatalf("%v on %v: %v", cfg, kind, err)
	}
	copy(e.bias, bias)
	e.cap = cap
	e.PerturbWeights(0.15, seed)
	return e
}

// fuzzBatch draws rows whose fill runs from all-zero through a single live
// element to fully dense around the requested level, so one batch holds rows
// that scatter, rows that gather and rows that die mid-stack.
func fuzzBatch(rng *rand.Rand, rows, width int, fill uint8) *sparse.Dense {
	d, _ := sparse.NewDense(rows, width)
	for r := 0; r < rows; r++ {
		p := float64(fill) / 255
		switch rng.Intn(6) {
		case 0:
			p = 0
		case 1:
			p = 1
		case 2:
			p = 1 / float64(width)
		}
		scale := 1.0
		if rng.Intn(4) == 0 {
			scale = 16 // reaches the cap
		}
		row := d.RowSlice(r)
		for c := range row {
			if rng.Float64() < p {
				row[c] = rng.Float64() * scale
			}
		}
	}
	return d
}

// sameBits reports (with Errorf, so engine goroutines may call it) the first
// element at which got and want differ in any bit.
func sameBits(t *testing.T, what string, got, want *sparse.Dense) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Errorf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		return
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Errorf("%s: row %d col %d = %x (%v), want %x (%v)", what, i/want.Cols(), i%want.Cols(),
				math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
			return
		}
	}
}

// layersAgree is the per-layer half of the differential: on one drawn input
// per layer, the CSC gather, the affine gather with the epilogue applied by
// hand, and the radix layer's gather and scatter — fed and read through the
// Stockham packing when the layer runs packed — must all agree bit for bit.
func layersAgree(t *testing.T, rng *rand.Rand, csc, rad *Engine) {
	t.Helper()
	for l, k := range csc.kernels {
		rk := rad.radix[l]
		if k.NNZ() != csc.layers[l].NNZ() || k.Rows() != rk.Rows() || k.Cols() != rk.Cols() {
			t.Fatalf("layer %d: CSC kernel %dx%d nnz %d vs radix %dx%d", l, k.Rows(), k.Cols(), k.NNZ(), rk.Rows(), rk.Cols())
		}
		bias, clip := csc.bias[l], csc.cap
		x := make([]float64, k.Rows())
		for i := range x {
			if rng.Intn(3) > 0 {
				x[i] = rng.Float64()
			}
		}
		want := make([]float64, k.Cols())
		wantN := k.FusedGatherRow(want, x, bias, clip)

		aff, bvec := make([]float64, k.Cols()), make([]float64, k.Cols())
		for c := range bvec {
			bvec[c] = bias
		}
		k.AffineGatherRow(aff, x, bvec)
		for c, v := range aff {
			if v <= 0 {
				v = 0
			} else if clip > 0 && v > clip {
				v = clip
			}
			if math.Float64bits(v) != math.Float64bits(want[c]) {
				t.Fatalf("layer %d: affine gather col %d = %v, want %v", l, c, v, want[c])
			}
		}

		in, unpack := x, func(out []float64) []float64 { return out }
		if rk.Stockham() {
			p := rk.Plan()
			in = make([]float64, len(x))
			for r, v := range x {
				in[p.InPackPos(r)] = v
			}
			unpack = func(out []float64) []float64 {
				nat := make([]float64, len(out))
				for c := range nat {
					nat[c] = out[p.OutPackPos(c)]
				}
				return nat
			}
		}
		check := func(what string, out []float64, n int) {
			t.Helper()
			if n != wantN {
				t.Fatalf("layer %d %s: %d live outputs, want %d", l, what, n, wantN)
			}
			for c, v := range unpack(out) {
				if math.Float64bits(v) != math.Float64bits(want[c]) {
					t.Fatalf("layer %d %s: col %d = %v, want %v", l, what, c, v, want[c])
				}
			}
		}
		out := make([]float64, k.Cols())
		check("radix gather", out, rk.FusedGatherRow(out, in, bias, clip))
		if rk.Stockham() {
			check("stockham scatter", out, rk.FusedScatterRowStockham(out, in, nil, make([]float64, k.Cols()), bias, clip))
		} else {
			check("radix scatter", out, rk.FusedScatterRow(out, in, bias, clip))
		}
	}
}

// FuzzInferPathsAgree is the differential gate every kernel deletion sits
// behind: for a drawn network, batch and epilogue, the CSC engine, the
// auto-built radix engine (natural-order or Stockham, as the config
// resolves), a clone of each under concurrent use, and ReferenceInfer must
// agree bit for bit — on the batch, on a shorter batch through the same
// engines, and on each engine's own output view fed back in.
func FuzzInferPathsAgree(f *testing.F) {
	// The seed corpus alone reaches every function of sparse/kernel.go and
	// sparse/radixkernel.go (see the -coverprofile recipe in CHANGES.md).
	for _, s := range []struct {
		spec             []byte
		rows, fill, opts uint8 // batch is rows+1
		seed             int64
	}{
		// (4,4,4) at batch 4: the shape on which switching a warm CSC engine
		// to Stockham used to index unsized scratch.
		{[]byte{2, 2, 2, 2}, 3, 40, 0, 1},
		// (8,8), 21 dense rows: octets through the radix-8 taps, a quad, a single.
		{[]byte{1, 4, 4}, 20, 230, 0, 2},
		// (8,8) with positive biases: dead rows come back, the ring steps aside.
		{[]byte{1, 4, 4}, 8, 20, 1, 3},
		// (3,5): radices that are not powers of two, so no ring; cap off.
		{[]byte{1, 1, 3}, 12, 30, 2, 4},
		// (2,32) then (32,2): very unequal radices, thin rows past layer 0.
		{[]byte{1, 0, 6, 1, 1}, 66, 12, 0, 5},
		// (4,4) uniformly lifted by 2: the natural-order family, 8/4/1 blocks.
		{[]byte{1, 2, 2, 0, 1}, 14, 200, 0, 6},
		// (4,4) with a ragged shape and thin rows: natural-order scatter.
		{[]byte{1, 2, 2, 0, 2, 1, 2, 0}, 5, 10, 0, 7},
		// (2,4,8) | (4,8,2) | (4,8): the last system's product only divides N′.
		{[]byte{2, 0, 2, 4, 2, 2, 6}, 11, 120, 2, 8},
		// One radix, one layer, one row, all zero.
		{[]byte{0, 4}, 0, 0, 0, 9},
	} {
		f.Add(s.spec, s.rows, s.fill, s.opts, s.seed)
	}
	f.Fuzz(func(t *testing.T, spec []byte, rows, fill, opts uint8, seed int64) {
		cfg, err := fuzzConfig(spec)
		if err != nil {
			t.Fatalf("spec %v decoded to an invalid config: %v", spec, err)
		}
		rng := rand.New(rand.NewSource(seed))
		batchRows := 1 + int(rows)%67 // every 8/4/1 remainder occurs
		bias := make([]float64, cfg.TotalRadices())
		for i := range bias {
			bias[i] = []float64{-0.3, 0, -0.1}[rng.Intn(3)]
			if opts&1 != 0 && rng.Intn(2) == 0 {
				bias[i] = 0.2
			}
		}
		cap := 32.0
		if opts&2 != 0 {
			cap = 0
		}
		width := cfg.LayerWidths()[0]
		batch := fuzzBatch(rng, batchRows, width, fill)
		short, err := batch.RowsView(0, 1+batchRows/2)
		if err != nil {
			t.Fatal(err)
		}

		// The CSC engine serves its first call before its radix twin exists:
		// the same batch size then reaches both, and their clones, cold.
		csc := fuzzEngine(t, cfg, KernelCSC, bias, cap, seed)
		want, err := csc.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := csc.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "csc", got, want)
		rad := fuzzEngine(t, cfg, KernelAuto, bias, cap, seed)
		if rad.Kernel() != KernelRadix {
			t.Fatalf("%v: auto resolved to %v", cfg, rad.Kernel())
		}
		engines := map[string]*Engine{"csc": csc, "radix": rad, "csc clone": csc.Clone(), "radix clone": rad.Clone()}

		chain := cfg.LayerWidths()[cfg.TotalRadices()] == width
		var want2 *sparse.Dense
		if chain {
			if want2, err = csc.ReferenceInfer(want); err != nil {
				t.Fatal(err)
			}
		}
		wantShort, err := want.RowsView(0, short.Rows())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for name, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := e.Infer(batch)
				if err != nil {
					t.Error(name, err)
					return
				}
				sameBits(t, name, out, want)
				if chain {
					if out, err = e.Infer(out); err != nil {
						t.Error(name, err)
						return
					}
					sameBits(t, name+" chained", out, want2)
				}
				if out, err = e.Infer(short); err != nil {
					t.Error(name, err)
					return
				}
				sameBits(t, name+" short batch", out, wantShort)
			}()
		}
		wg.Wait()
		if !t.Failed() {
			layersAgree(t, rng, csc, rad)
		}
	})
}
