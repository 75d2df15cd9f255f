package infer

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/parallel"
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

// fuzzEngine builds cfg on the given kernel with the drawn biases and cap,
// its weights perturbed or left at the 4/fan-in every served engine has (a
// power of two on the palette's radices 2–32, not on 3, 5 or under a lift by
// 3). op then writes to single layers, which PerturbWeights — every layer at
// once — never does: bit 0 perturbs one drawn layer through Values, bit 1
// halves one with Scale (still one power of two, but not its neighbours'), so
// a stack left at 4/fan-in ends up half on the shared constant run and half
// off it. Two calls with the same draws differ only in kind.
func fuzzEngine(t *testing.T, cfg core.Config, kind KernelKind, bias []float64, cap float64, perturb bool, op int, seed int64) *Engine {
	t.Helper()
	e, err := FromConfigKernel(cfg, kind)
	if err != nil {
		t.Fatalf("%v on %v: %v", cfg, kind, err)
	}
	copy(e.bias, bias)
	e.cap = cap
	if perturb {
		e.PerturbWeights(0.15, seed)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
	if op&1 != 0 {
		vals := e.layers[rng.Intn(len(e.layers))].Values()
		for i := range vals {
			vals[i] += (rng.Float64()*2 - 1) * 0.15
		}
	}
	if op&2 != 0 {
		e.layers[rng.Intn(len(e.layers))].Scale(0.5)
	}
	if op != 0 {
		e.RefreshWeights()
	}
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

// fuzzScales are the magnitudes a batch is moved to: down among the
// subnormals, where a weight below 1 makes products inexact; far from both
// ends; and up where 2^1000 overflows after a few uncapped layers and 2^1022
// within one layer's sums.
var fuzzScales = [...]float64{1, 0x1p-1060, 0x1p-700, 0x1p700, 0x1p1000, 0x1p1022}

// shapeBatch moves a drawn batch to the ends of the double range. mode 0–5
// multiplies by fuzzScales[mode], and alt flips the sign of about half the
// elements; mode 6 (7) sets every nonzero element's exponent to the lowest
// (highest) normal binade, or with alt one binade beyond it — subnormals
// (infinities). specials then overwrites up to three elements with one kind of
// special value — NaN, ±Inf, a subnormal, ±MaxFloat64 — or −0, which every
// path must read as zero.
func shapeBatch(rng *rand.Rand, batch *sparse.Dense, mode int, alt, specials bool) {
	data := batch.Data()
	if mode < len(fuzzScales) {
		for i := range data {
			data[i] *= fuzzScales[mode]
			if alt && rng.Intn(2) == 0 {
				data[i] = -data[i]
			}
		}
	} else {
		e := 1
		if mode == 7 {
			e = 2046
		}
		if alt {
			e += 2*(mode-6) - 1
		}
		for i, v := range data {
			frac, _ := math.Frexp(v)
			data[i] = math.Ldexp(frac, e-1022)
		}
	}
	if specials {
		v := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
			float64(1+rng.Intn(7)) * 5e-324, math.MaxFloat64, -math.MaxFloat64}[rng.Intn(7)]
		for n := 1 + rng.Intn(3); n > 0; n-- {
			data[rng.Intn(len(data))] = v
		}
	}
}

// sameBits reports (with Errorf, so engine goroutines may call it) the first
// element at which got and want differ in any bit. Two NaNs agree whatever
// their payloads: when both operands of an add are NaN the hardware keeps the
// first one's, and the compiler is free to commute the add.
func sameBits(t *testing.T, what string, got, want *sparse.Dense) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Errorf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		return
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
			t.Errorf("%s: row %d col %d = %x (%v), want %x (%v)", what, i/want.Cols(), i%want.Cols(),
				math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
			return
		}
	}
}

// layersAgree is the per-layer half of the differential: on one drawn input
// per layer, the CSC gather, the affine gather with the epilogue applied by
// hand, and the gather, octet (on eight copies of the row) and scatter of a
// sparse.RadixKernel built on the layer's stride plan — the kernel
// radixbench's sparse.* probes time — must all agree bit for bit. So must, on
// every layer, its quotient under the numbering its input carries in the auto
// engine (a class per row behind a per-column step, the previous quotient's
// classes behind one), on a row drawn as one value per class: expanded through
// its classes, word for word, and its live count over the whole row. Where the
// engine runs the layer as a quotient, it must find the same number of
// classes.
func layersAgree(t *testing.T, rng *rand.Rand, cfg core.Config, csc, auto *Engine) {
	t.Helper()
	plans := stridePlans(t, cfg, csc)
	var inClass []int32 // layer l's input numbering, by row; nil for a class per row
	for l, k := range csc.kernels {
		rk, err := sparse.NewRadixKernel(csc.layers[l], k, plans[l])
		if err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
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

		check := func(what string, out []float64, n int) {
			t.Helper()
			if n != wantN {
				t.Fatalf("layer %d %s: %d live outputs, want %d", l, what, n, wantN)
			}
			for c, v := range out {
				if math.Float64bits(v) != math.Float64bits(want[c]) {
					t.Fatalf("layer %d %s: col %d = %v, want %v", l, what, c, v, want[c])
				}
			}
		}
		out := make([]float64, k.Cols())
		check("radix gather", out, rk.FusedGatherRow(out, x, bias, clip))
		var ins, outs [8][]float64
		for b := range ins {
			ins[b], outs[b] = x, make([]float64, k.Cols())
		}
		var n8 [8]int
		rk.FusedGatherRow8(&outs, &ins, bias, clip, &n8)
		for b := range outs {
			check(fmt.Sprintf("octet row %d", b), outs[b], n8[b])
		}
		check("radix scatter", out, rk.FusedScatterRow(out, x, bias, clip))

		if inClass == nil {
			inClass = make([]int32, k.Rows())
			for r := range inClass {
				inClass[r] = int32(r)
			}
		}
		q, outClass, mult := sparse.NewQuotient(k, inClass)
		v := make([]float64, q.Rows())
		for i := range v {
			if rng.Intn(3) > 0 {
				v[i] = rng.Float64()
			}
		}
		for r := range x {
			x[r] = v[inClass[r]]
		}
		wantN = k.FusedGatherRow(want, x, bias, clip)
		cls := make([]float64, q.Cols())
		q.FusedGatherRow(cls, v, bias, clip)
		live := 0
		for c, i := range outClass {
			out[c] = cls[i]
		}
		for i, v := range cls {
			if v != 0 {
				live += int(mult[i])
			}
		}
		check(fmt.Sprintf("quotient, %d classes of %d rows", q.Rows(), k.Rows()), out, live)
		inClass = nil
		st, ok := auto.steps[l].(quotientLayer)
		if ok != (l > 0 && q.Cols() < k.Cols()) || ok && st.q.Cols() != q.Cols() {
			t.Fatalf("layer %d: %d classes of %d columns, but the engine's step is %T", l, q.Cols(), k.Cols(), auto.steps[l])
		}
		if ok {
			inClass = outClass
		}
	}
}

// The opts bits fuzzSeeds name.
const (
	uniform  = 4      // opts bit 2: weights left at 4/fan-in
	atLo     = 6 << 3 // every input in the lowest normal binade
	atHi     = 7 << 3 // ... the highest
	alt      = 64     // one binade beyond it; sign flips on modes 0–5
	specials = 128
)

// fuzzSeeds is FuzzInferPathsAgree's seed corpus. It alone reaches every
// function of sparse/kernel.go and sparse/radixkernel.go (see the
// -coverprofile recipe in CHANGES.md), and runs every path at both ends of the
// double range; TestConfigLayersFollowEdgeRule checks every config it decodes.
var fuzzSeeds = []struct {
	spec             []byte
	rows, fill, opts uint8 // batch is rows%67+1, single-layer op rows/67
	seed             int64
}{
	// (4,4,4) at batch 4: the shape on which switching a warm CSC engine
	// to another kernel family used to index unsized scratch.
	{[]byte{2, 2, 2, 2}, 3, 40, 0, 1},
	// (8,8), 21 dense rows: five quads and a single.
	{[]byte{1, 4, 4}, 20, 230, 0, 2},
	// (8,8) with positive biases: dead rows come back.
	{[]byte{1, 4, 4}, 8, 20, 1, 3},
	// (3,5): radices that are not powers of two; cap off.
	{[]byte{1, 1, 3}, 12, 30, 2, 4},
	// (2,32) then (32,2): very unequal radices, thin rows past layer 0.
	{[]byte{1, 0, 6, 1, 1}, 66, 12, 0, 5},
	// (4,4) uniformly lifted by 2: quads and singles on lifted layers.
	{[]byte{1, 2, 2, 0, 1}, 14, 200, 0, 6},
	// (4,4) with a ragged shape and thin rows: lifted scatters.
	{[]byte{1, 2, 2, 0, 2, 1, 2, 0}, 5, 10, 0, 7},
	// (2,4,8) | (4,8,2) | (4,8): the last system's product only divides N′.
	{[]byte{2, 0, 2, 4, 2, 2, 6}, 11, 120, 2, 8},
	// One radix, one layer, one row, all zero.
	{[]byte{0, 4}, 0, 0, 0, 9},

	// Weights left at 4/fan-in. (8,8), weight 1/2, 25 mostly dense rows:
	// quads on every layer, then a single row.
	{[]byte{1, 4, 4}, 24, 240, uniform, 10},
	// The same net with every input in the lowest normal binade, and among
	// the subnormals below it (seeds that draw zero biases, so the outputs
	// live); in the highest, and at infinity above it; cap on and off.
	{[]byte{1, 4, 4}, 24, 240, uniform | atLo, 25},
	{[]byte{1, 4, 4}, 24, 240, uniform | atLo | alt, 64},
	{[]byte{1, 4, 4}, 24, 240, uniform | atHi, 13},
	{[]byte{1, 4, 4}, 24, 240, uniform | atHi | alt, 14},
	{[]byte{1, 4, 4}, 24, 240, uniform | 2 | atLo, 76},
	{[]byte{1, 4, 4}, 24, 240, uniform | 2 | atLo | alt, 25},
	{[]byte{1, 4, 4}, 24, 240, uniform | 2 | atHi, 17},
	{[]byte{1, 4, 4}, 24, 240, uniform | 2 | atHi | alt, 18},
	// (32,2), weight 1/8 on fan-ins 32 and 2 — full 8×8 tiles, then a
	// radix below the tile — fed subnormals, with zero biases for this
	// seed so they reach the output: the products round here.
	{[]byte{1, 6, 0}, 30, 250, uniform | 1<<3, 132},
	// (8,8) uncapped at 2^1022, where a sum of eight inputs overflows before
	// its weight is applied and not after. Then capped, with mixed signs.
	{[]byte{1, 4, 4}, 24, 250, uniform | 2 | 5<<3, 20},
	{[]byte{1, 4, 4}, 24, 250, uniform | 5<<3 | alt, 21},
	// 2^1000 uncapped through six layers of (8,8)|(8,8)|(8,8): finite in,
	// overflow mid-stack on every path alike.
	{[]byte{1, 4, 4, 2, 0, 0}, 16, 250, uniform | 2 | 4<<3, 22},
	// One kind of special element per batch (by seed: −0, NaN, subnormal,
	// ±MaxFloat64, ±Inf), then NaN in thin rows, where a scatter once
	// dropped it, on weights left alone and on perturbed ones.
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 100},
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 102},
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 103},
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 106},
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 101},
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 112},
	{[]byte{1, 4, 4}, 24, 240, uniform | specials, 115},
	{[]byte{1, 4, 4}, 24, 30, uniform | specials, 114},
	{[]byte{1, 4, 4}, 24, 30, specials, 128},
	// (8,8)|(8,8) with positive biases on weights left alone. Seed 133
	// draws 1e-300, 0, 0.2, 0.2 — none negative, so every layer's outputs
	// take the granularity of its bias: on ordinary rows, in the lowest
	// normal binade, below it and at 2^−1060. Seed 104 draws a subnormal
	// bias; so do seeds 37 and 58 on plain (8,8), where the all-zero rows
	// it resurrects reach a zero-bias layer.
	{[]byte{1, 4, 4, 1, 0}, 24, 240, uniform | 1, 133},
	{[]byte{1, 4, 4, 1, 0}, 24, 240, uniform | 1 | atLo, 133},
	{[]byte{1, 4, 4, 1, 0}, 24, 240, uniform | 1 | atLo | alt, 133},
	{[]byte{1, 4, 4, 1, 0}, 24, 240, uniform | 1 | 1<<3, 133},
	{[]byte{1, 4, 4, 1, 0}, 24, 240, uniform | 1, 104},
	{[]byte{1, 4, 4}, 24, 240, uniform | 1, 37},
	{[]byte{1, 4, 4}, 24, 240, uniform | 1, 58},
	// Left alone but not a power of two: (3,5) weighs 4/3, and (4,4)
	// lifted by 3 weighs 1/3.
	{[]byte{1, 1, 3}, 12, 240, uniform, 30},
	{[]byte{1, 2, 2, 0, 2, 2, 2, 2}, 12, 240, uniform, 31},
	// Single-layer writes to six layers of (8,8)|(8,8)|(8,8) left at 1/2:
	// one layer perturbed (the rest stay on the shared run), one halved
	// (one weight per layer throughout, two across the stack), both; then
	// both on perturbed weights and on a lifted stack.
	{[]byte{1, 4, 4, 2, 0, 0}, 67 + 24, 240, uniform, 40},
	{[]byte{1, 4, 4, 2, 0, 0}, 2*67 + 24, 240, uniform, 41},
	{[]byte{1, 4, 4, 2, 0, 0}, 3*67 + 24, 240, uniform, 42},
	{[]byte{1, 4, 4, 2, 0, 0}, 3*67 + 12, 60, 0, 43},
	{[]byte{1, 2, 2, 1, 0, 1}, 3*67 + 14, 200, uniform, 44},
	// A quotient beside per-column gathers, on (8,8) and (2,32) left at
	// 4/fan-in with one layer perturbed, every row at an end of the range
	// (a special element, subnormals, 2^1022) and dense enough to
	// gather on both layers: batches of 1, 4, 5, 8 and 13 rows — a single,
	// one quad, two, and quads with a tail. These seeds perturb the opening
	// layer, so the closing one runs its quotient behind weighted gathers ...
	{[]byte{1, 4, 4}, 67 + 0, 240, uniform | specials, 209},
	{[]byte{1, 0, 6}, 67 + 3, 240, uniform | 1<<3, 242},
	{[]byte{1, 4, 4}, 67 + 4, 240, uniform | 5<<3, 249},
	{[]byte{1, 0, 6}, 67 + 7, 240, uniform | specials, 356},
	{[]byte{1, 4, 4}, 67 + 12, 240, uniform | 1<<3, 372},
	// ... and these the closing layer, which must number a class per column
	// and run per column while the opening one stays at one weight.
	{[]byte{1, 4, 4}, 67 + 0, 240, uniform | 5<<3, 200},
	{[]byte{1, 4, 4}, 67 + 3, 240, uniform | 1<<3, 219},
	{[]byte{1, 0, 6}, 67 + 4, 240, uniform | specials, 203},
	{[]byte{1, 4, 4}, 67 + 7, 240, uniform | 1<<3, 252},
	{[]byte{1, 0, 6}, 67 + 12, 240, uniform | 5<<3, 1194},
	// Quotients behind quotients, and the class vectors between them.
	// (8,8)|(8,8)|(8,8) left at 1/2 — layers 1 to 5 on 8 classes each, which
	// they hand on as 8 entries, the last expanding them to the row — on 13
	// ordinary rows, then on subnormals (this seed draws zero biases, so
	// they reach the output); one layer halved, which keeps every layer on
	// one weight but not its neighbour's.
	{[]byte{1, 4, 4, 2, 0, 0}, 12, 240, uniform, 406},
	{[]byte{1, 4, 4, 2, 0, 0}, 12, 240, uniform | 1<<3, 710},
	{[]byte{1, 4, 4, 2, 0, 0}, 2*67 + 3, 240, uniform, 406},
	// The same stack with one layer perturbed, rows at the range's ends, zero
	// biases: the opening layer 4 (it gathers per column, so layer 3 expands
	// its classes to the row and layer 5 numbers layer 4's row afresh), the
	// closing layer 3 (per column, and layer 4 behind it too, reading a row
	// of a class apiece) and the closing layer 1. Batches of 8, 5 and 1.
	{[]byte{1, 4, 4, 2, 0, 0}, 67 + 7, 240, uniform | 5<<3, 5639},
	{[]byte{1, 4, 4, 2, 0, 0}, 67 + 4, 240, uniform | specials, 8734},
	{[]byte{1, 4, 4, 2, 0, 0}, 67 + 0, 240, uniform | 1<<3, 2767},
	// (2,32)|(2,32): two classes from layer 1 on — a quad gathers two chains
	// a row.
	{[]byte{1, 0, 6, 1, 0}, 7, 240, uniform | specials, 451},
	{[]byte{1, 0, 6, 1, 0}, 12, 240, uniform, 406},
	// (16,4)|(4,16): a period of four radices, so the wrapped columns are
	// classes of their own (19 in all); then its opening layer 2 and its
	// closing layer 1 perturbed.
	{[]byte{1, 5, 2, 1, 1}, 4, 240, uniform | 1<<3, 462},
	{[]byte{1, 5, 2, 1, 1}, 67 + 12, 240, uniform | 5<<3, 997},
	{[]byte{1, 5, 2, 1, 1}, 67 + 3, 240, uniform | specials, 710},
	// (4,8)|(8,4): the period 4 is no multiple of the radix 8; every layer
	// past the first runs on 4 classes all the same.
	{[]byte{1, 2, 4, 1, 1}, 12, 240, uniform, 406},
	// (4,4,4)|(4,4,4): the 19 classes behind the closing layer 2 feed a
	// middle digit, which keeps them (the decoder stops at N′ = 64; (8,8,8)
	// twice is in TestQuotientClassCounts).
	{[]byte{2, 2, 2, 2, 1, 0}, 12, 240, uniform | 5<<3, 997},
	{[]byte{2, 2, 2, 2, 1, 0}, 7, 240, uniform, 406},
	// (8,8)|(8,8) with positive biases on thin rows: rows that died come back
	// filled by a quotient's bias beside live rows handed on as classes.
	{[]byte{1, 4, 4, 1, 0}, 12, 60, uniform | 1, 400},
	// Depth-first tiles. ((2,32),(2)) lifted to widths 64, 128, 64, 64 with
	// positive biases, 25 rows: in a buffer every tile shares, a row's slot
	// moves with the layer width, and a tile one layer ahead wrote over rows
	// its neighbour had yet to read — the spec that caught the prototype.
	// Then the same with 67 thin rows; and more stacks whose widths differ
	// from layer to layer, positive biases on all, at 13, 25 and 67 rows:
	// ((8,8),(8,8)) at 128, 64, 192, 128, 192; (4,8) at 96, 32, 64;
	// ((2,4,8),(8,4,2)) at 64 to 192, cap off; ((8,4),(4,8)) at 96, 96, 32,
	// 64, 64; ((16),(16)) at 16, 48, 32.
	{[]byte("11017201"), 0x18, 0xf2, 'q', 100},
	{[]byte("11017201"), 66, 0x30, uniform | 1, 133},
	{[]byte{1, 4, 4, 1, 0, 2, 1, 0, 2, 1, 2}, 66, 60, uniform | 1, 400},
	{[]byte{1, 2, 4, 0, 2, 2, 0, 1}, 12, 200, 1, 7},
	{[]byte{2, 0, 2, 4, 1, 1, 2, 0, 2, 1, 0, 2, 1, 2}, 24, 30, 1 | 2, 8},
	{[]byte{1, 4, 2, 1, 1, 2, 2, 2, 0, 1, 1}, 66, 240, uniform | 1, 406},
	{[]byte{0, 5, 1, 0, 2, 0, 2, 1}, 12, 120, 1, 3},
}

// FuzzInferPathsAgree is the differential gate every kernel deletion sits
// behind: for a drawn network, batch and epilogue, the CSC engine, the auto
// engine (a quotient on every layer past the first that its values number
// into fewer classes than columns, class vectors between them), a clone of
// each under concurrent use, and ReferenceInfer must agree bit for bit — on
// the batch, on a shorter batch through the same engines, on each engine's
// own output view fed back in, and on the batch again cut into tiles for a
// private pool of three workers (the first runs share parallel.Shared, so all
// but one at a time take its busy path).
//
// opts: bit 0 allows positive biases (a quarter of them tiny or subnormal),
// bit 1 turns the cap off, bit 2
// leaves the weights at 4/fan-in instead of perturbing them, and bits 3–7 are
// shapeBatch's mode, alt and specials. rows carries two things: the batch is
// 1 + rows%67 rows, and rows/67 is fuzzEngine's single-layer op.
func FuzzInferPathsAgree(f *testing.F) {
	for _, s := range fuzzSeeds {
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
		// Everything drawn since PR 16 comes from a second stream, so the
		// draws above are the ones the first nine seeds always made.
		rng2 := rand.New(rand.NewSource(^seed))
		if opts&1 != 0 {
			for i := range bias {
				if rng2.Intn(4) == 0 {
					bias[i] = []float64{1e-300, 1e-310}[rng2.Intn(2)]
				}
			}
		}
		perturb, op := opts&4 == 0, int(rows)/67
		shapeBatch(rng2, batch, int(opts>>3)&7, opts&64 != 0, opts&128 != 0)
		short, err := batch.RowsView(0, 1+batchRows/2)
		if err != nil {
			t.Fatal(err)
		}

		// The CSC engine serves its first call before its auto twin exists:
		// the same batch size then reaches both, and their clones, cold.
		csc := fuzzEngine(t, cfg, KernelCSC, bias, cap, perturb, op, seed)
		want, err := csc.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := csc.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "csc", got, want)
		auto := fuzzEngine(t, cfg, KernelAuto, bias, cap, perturb, op, seed)
		if csc.Kernel() != KernelCSC || csc.QuotientLayers() != 0 || auto.Kernel() != KernelAuto {
			t.Fatalf("%v: kinds %v and %v, %d quotient layers on the CSC engine", cfg, csc.Kernel(), auto.Kernel(), csc.QuotientLayers())
		}
		engines := map[string]*Engine{"csc": csc, "auto": auto, "csc clone": csc.Clone(), "auto clone": auto.Clone()}

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
				pool := parallel.NewPool(3)
				defer pool.Close()
				e.SetPool(pool)
				if out, err = e.Infer(batch); err != nil {
					t.Error(name, err)
					return
				}
				sameBits(t, name+" on three workers", out, want)
			}()
		}
		wg.Wait()
		if !t.Failed() {
			layersAgree(t, rng, cfg, csc, auto)
		}
	})
}
