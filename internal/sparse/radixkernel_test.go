package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// buildRadixTrio builds the matrix, CSC kernel and radix kernel for one
// random layer, with random weights (including negatives) so cancellation
// and rounding order matter.
func buildRadixTrio(t *testing.T, rng *rand.Rand, np, pv, radix, dPrev, dNext int) (*Matrix, *Kernel, *RadixKernel) {
	t.Helper()
	pat := radixLayer(np, pv, radix, dPrev, dNext)
	vals := make([]float64, pat.NNZ())
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	m, err := NewMatrix(pat, vals)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileStridePlan(pat, np, pv, radix, dPrev, dNext)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := NewRadixKernel(m, k, plan)
	if err != nil {
		t.Fatal(err)
	}
	return m, k, rk
}

// randomInput draws an input row with the requested density; zeros are
// exact so the scatter path's skip logic is exercised.
func randomInput(rng *rand.Rand, n int, density float64) []float64 {
	in := make([]float64, n)
	for i := range in {
		if rng.Float64() < density {
			in[i] = rng.NormFloat64() * 2
		}
	}
	return in
}

// TestRadixKernelBitIdenticalToCSC: the radix kernel's gather, quad-gather,
// octet-gather and scatter paths must produce bit-identical outputs (and
// identical nnz counts) to the CSC kernel and CSR matrix they share values
// with, across random radix systems, shapes, densities and clip settings.
func TestRadixKernelBitIdenticalToCSC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		radices, np := randomSystem(rng)
		pv := 1
		for _, r := range radices {
			dPrev := 1 + rng.Intn(2)
			dNext := 1 + rng.Intn(2)
			m, k, rk := buildRadixTrio(t, rng, np, pv, r, dPrev, dNext)
			rows, cols := m.Rows(), m.Cols()
			bias := rng.NormFloat64() * 0.2
			clip := 0.0
			if rng.Intn(2) == 0 {
				clip = 0.5 + rng.Float64()
			}
			density := []float64{1, 0.3, 0.05}[rng.Intn(3)]

			var ins [4][]float64
			for b := range ins {
				ins[b] = randomInput(rng, rows, density)
			}
			want := make([]float64, cols)
			got := make([]float64, cols)
			for b := range ins {
				wantNNZ := k.FusedGatherRow(want, ins[b], bias, clip)
				gotNNZ := rk.FusedGatherRow(got, ins[b], bias, clip)
				if wantNNZ != gotNNZ {
					t.Fatalf("%v: gather nnz %d, want %d", rk.plan, gotNNZ, wantNNZ)
				}
				for c := range want {
					if want[c] != got[c] {
						t.Fatalf("%v: gather out[%d] = %x, want %x", rk.plan, c, got[c], want[c])
					}
				}

				wantNNZ = m.FusedScatterRow(want, ins[b], bias, clip)
				gotNNZ = rk.FusedScatterRow(got, ins[b], bias, clip)
				if wantNNZ != gotNNZ {
					t.Fatalf("%v: scatter nnz %d, want %d", rk.plan, gotNNZ, wantNNZ)
				}
				for c := range want {
					if want[c] != got[c] {
						t.Fatalf("%v: scatter out[%d] = %x, want %x", rk.plan, c, got[c], want[c])
					}
				}
			}

			// Quad gather vs four singles (which are already CSC-identical).
			var wants, gots [4][]float64
			var wantN [4]int
			for b := range ins {
				wants[b] = make([]float64, cols)
				gots[b] = make([]float64, cols)
				wantN[b] = rk.FusedGatherRow(wants[b], ins[b], bias, clip)
			}
			var gotN [4]int
			rk.FusedGatherRow4(gots[0], gots[1], gots[2], gots[3], ins[0], ins[1], ins[2], ins[3], bias, clip, &gotN)
			for b := range ins {
				if gotN[b] != wantN[b] {
					t.Fatalf("%v: quad nnz[%d] = %d, want %d", rk.plan, b, gotN[b], wantN[b])
				}
				for c := range wants[b] {
					if wants[b][c] != gots[b][c] {
						t.Fatalf("%v: quad out%d[%d] = %x, want %x", rk.plan, b, c, gots[b][c], wants[b][c])
					}
				}
			}
			// Octet gather over the four rows twice vs the singles.
			var ins8, outs8 [8][]float64
			for b := range ins8 {
				ins8[b], outs8[b] = ins[b%4], make([]float64, cols)
			}
			var n8 [8]int
			rk.FusedGatherRow8(&outs8, &ins8, bias, clip, &n8)
			for b := range outs8 {
				if n8[b] != wantN[b%4] {
					t.Fatalf("%v: octet nnz[%d] = %d, want %d", rk.plan, b, n8[b], wantN[b%4])
				}
				for c := range outs8[b] {
					if wants[b%4][c] != outs8[b][c] {
						t.Fatalf("%v: octet out%d[%d] = %x, want %x", rk.plan, b, c, outs8[b][c], wants[b%4][c])
					}
				}
			}
			pv *= r
		}
	}
}

// TestRadixKernelSharesValueStorage: mutating the matrix in place and
// refreshing the CSC kernel must be visible to the radix kernel with no
// extra call — the contract engines rely on for weight refresh.
func TestRadixKernelSharesValueStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, rk := buildRadixTrio(t, rng, 12, 2, 3, 2, 1)
	in := randomInput(rng, m.Rows(), 1)
	before := make([]float64, m.Cols())
	rk.FusedGatherRow(before, in, -0.1, 0)

	vals := m.Values()
	for i := range vals {
		vals[i] *= 1.5
	}
	if err := k.Refresh(m); err != nil {
		t.Fatal(err)
	}

	wantG := make([]float64, m.Cols())
	gotG := make([]float64, m.Cols())
	k.FusedGatherRow(wantG, in, -0.1, 0)
	rk.FusedGatherRow(gotG, in, -0.1, 0)
	changed := false
	for c := range wantG {
		if wantG[c] != gotG[c] {
			t.Fatalf("post-refresh gather out[%d] = %x, want %x", c, gotG[c], wantG[c])
		}
		if gotG[c] != before[c] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("weight mutation not visible through radix kernel")
	}

	wantS := make([]float64, m.Cols())
	gotS := make([]float64, m.Cols())
	m.FusedScatterRow(wantS, in, -0.1, 0)
	rk.FusedScatterRow(gotS, in, -0.1, 0)
	for c := range wantS {
		if wantS[c] != gotS[c] {
			t.Fatalf("post-refresh scatter out[%d] = %x, want %x", c, gotS[c], wantS[c])
		}
	}
}

// TestNewRadixKernelRejectsMismatchedPattern: a plan compiled against a
// different (even identical-looking) pattern must be rejected.
func TestNewRadixKernelRejectsMismatchedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, k, _ := buildRadixTrio(t, rng, 12, 1, 2, 1, 1)
	other := radixLayer(12, 1, 2, 1, 1)
	plan, err := CompileStridePlan(other, 12, 1, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRadixKernel(m, k, plan); err == nil {
		t.Fatal("radix kernel accepted a plan compiled on a different pattern instance")
	}
}

// oneWeightTrio is buildRadixTrio with every weight equal to w.
func oneWeightTrio(t testing.TB, np, pv, radix int, w float64) (*Matrix, *Kernel, *RadixKernel) {
	t.Helper()
	pat := radixLayer(np, pv, radix, 1, 1)
	m := MatrixFromPattern(pat, w)
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileStridePlan(pat, np, pv, radix, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := NewRadixKernel(m, k, plan)
	if err != nil {
		t.Fatal(err)
	}
	return m, k, rk
}

// BenchmarkOctet times the natural-order octet (FusedGatherRow8) on eight
// dense rows of one layer, in ns per edge: on one weight, 4/fan-in, and again
// on perturbed weights.
// Shapes: the two Graph Challenge 1024 layers (radix 32 at ν = 1 and ν = 32),
// the two of radix (8,8) and the middle and last layers of radix (8,8,8).
// Where the engine runs the layer as a quotient, a quotient cell adds the
// numbered layer's two quad gathers over the eight rows' class vectors, still
// per nominal edge — the edges the classes stand for — so it reads against
// weighted: a closing layer numbered from rows one class apiece in natural
// order, as behind a per-column layer, and an opening layer numbered from the row of period
// `period` the closing layer of a second system of the same radices leaves.
func BenchmarkOctet(b *testing.B) {
	for _, s := range []struct {
		name                  string
		np, pv, radix, period int
	}{
		{"gc1024_l0", 1024, 1, 32, 32},
		{"gc1024_l1", 1024, 32, 32, 0},
		{"r88_l0", 64, 1, 8, 8},
		{"r88_l1", 64, 8, 8, 0},
		{"r888_l1", 512, 8, 8, 0},
		{"r888_l2", 512, 64, 8, 0},
	} {
		m, k, rk := oneWeightTrio(b, s.np, s.pv, s.radix, 4/float64(s.radix))
		rng := rand.New(rand.NewSource(1))
		var ins, outs [8][]float64
		for r := range ins {
			ins[r], outs[r] = make([]float64, s.np), make([]float64, s.np)
			for c := range ins[r] {
				ins[r][c] = 1 - rng.Float64()
			}
		}
		var nnz [8]int
		run := func(name string, fn func()) {
			b.Run(s.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(8*m.NNZ()), "ns/edge")
			})
		}
		run("weighted", func() { rk.FusedGatherRow8(&outs, &ins, -0.1, 32, &nnz) })
		in := naturalClasses(rk.plan)
		if s.period > 0 {
			for r := range in {
				in[r] = int32(r % s.period)
			}
		}
		if q, _, _ := NewQuotient(k, in); q.Cols() < s.np {
			n4 := (*[4]int)(nnz[:4])
			run("quotient", func() {
				q.FusedGatherRow4(outs[0], outs[1], outs[2], outs[3], ins[0], ins[1], ins[2], ins[3], -0.1, 32, n4)
				q.FusedGatherRow4(outs[4], outs[5], outs[6], outs[7], ins[4], ins[5], ins[6], ins[7], -0.1, 32, n4)
			})
		}
		vals := m.Values()
		for i := range vals {
			vals[i] += (rng.Float64()*2 - 1) * 0.01
		}
		if err := k.Refresh(m); err != nil {
			b.Fatal(err)
		}
		if slices.Min(k.vals) == slices.Max(k.vals) {
			b.Fatalf("%s: perturbed weights still read as one", s.name)
		}
		run("perturbed", func() { rk.FusedGatherRow8(&outs, &ins, -0.1, 32, &nnz) })
	}
}
