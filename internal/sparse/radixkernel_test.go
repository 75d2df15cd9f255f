package sparse

import (
	"math"
	"math/rand"
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

// TestRadixKernelBitIdenticalToCSC: the radix kernel's gather, quad-gather
// and scatter paths must produce bit-identical outputs (and identical nnz
// counts) to the CSC kernel and CSR matrix they share values with, across
// random radix systems, shapes, densities and clip settings.
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
					t.Fatalf("%v: gather nnz %d, want %d", rk.Plan(), gotNNZ, wantNNZ)
				}
				for c := range want {
					if want[c] != got[c] {
						t.Fatalf("%v: gather out[%d] = %x, want %x", rk.Plan(), c, got[c], want[c])
					}
				}

				wantNNZ = m.FusedScatterRow(want, ins[b], bias, clip)
				gotNNZ = rk.FusedScatterRow(got, ins[b], bias, clip)
				if wantNNZ != gotNNZ {
					t.Fatalf("%v: scatter nnz %d, want %d", rk.Plan(), gotNNZ, wantNNZ)
				}
				for c := range want {
					if want[c] != got[c] {
						t.Fatalf("%v: scatter out[%d] = %x, want %x", rk.Plan(), c, got[c], want[c])
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
					t.Fatalf("%v: quad nnz[%d] = %d, want %d", rk.Plan(), b, gotN[b], wantN[b])
				}
				for c := range wants[b] {
					if wants[b][c] != gots[b][c] {
						t.Fatalf("%v: quad out%d[%d] = %x, want %x", rk.Plan(), b, c, gots[b][c], wants[b][c])
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

// packBy permutes a natural-layout vector into packed layout via pos.
func packBy(natural []float64, pos func(int) int) []float64 {
	out := make([]float64, len(natural))
	for i, v := range natural {
		out[pos(i)] = v
	}
	return out
}

// unpackBy reads a packed-layout vector back into natural layout via pos.
func unpackBy(packed []float64, pos func(int) int) []float64 {
	out := make([]float64, len(packed))
	for i := range out {
		out[i] = packed[pos(i)]
	}
	return out
}

// TestRadixKernelStockhamBitIdentical: in Stockham mode every kernel form —
// single, quad and octet gathers plus the scratch-based scatter — must
// produce, after unpacking the packed output layout, results bit-identical
// to the natural-order CSC kernel and CSR matrix. Also checks the packing
// maps are permutations and that the last layer of a system (pv·radix = N′)
// packs to the identity, which is what lets the engine keep natural I/O.
func TestRadixKernelStockhamBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		radices, np := randomSystem(rng)
		pv := 1
		for _, r := range radices {
			m, k, rk := buildRadixTrio(t, rng, np, pv, r, 1, 1)
			p := rk.Plan()
			if !p.CanStockham() {
				t.Fatalf("%v: pure EMR layer should admit Stockham", p)
			}
			if err := rk.EnableStockham(); err != nil {
				t.Fatal(err)
			}
			if !rk.Stockham() {
				t.Fatalf("%v: Stockham not enabled", p)
			}

			seenIn := make([]bool, np)
			seenOut := make([]bool, np)
			for i := 0; i < np; i++ {
				seenIn[p.InPackPos(i)] = true
				seenOut[p.OutPackPos(i)] = true
			}
			for i := 0; i < np; i++ {
				if !seenIn[i] || !seenOut[i] {
					t.Fatalf("%v: packing is not a permutation at %d", p, i)
				}
			}
			if pv*r == np {
				for c := 0; c < np; c++ {
					if p.OutPackPos(c) != c {
						t.Fatalf("%v: final-layer out packing not identity at %d", p, c)
					}
				}
			}

			bias := rng.NormFloat64() * 0.2
			clip := 0.0
			if rng.Intn(2) == 0 {
				clip = 0.5 + rng.Float64()
			}
			var ins, pins, wants [8][]float64
			var wantN [8]int
			for b := range ins {
				ins[b] = randomInput(rng, np, []float64{1, 0.3, 0.05}[rng.Intn(3)])
				pins[b] = packBy(ins[b], p.InPackPos)
				wants[b] = make([]float64, np)
				wantN[b] = k.FusedGatherRow(wants[b], ins[b], bias, clip)
			}
			checkRow := func(form string, b int, packed []float64, nnz int) {
				t.Helper()
				if nnz != wantN[b] {
					t.Fatalf("%v: %s nnz[%d] = %d, want %d", p, form, b, nnz, wantN[b])
				}
				got := unpackBy(packed, p.OutPackPos)
				for c := range got {
					if got[c] != wants[b][c] {
						t.Fatalf("%v: %s out%d[%d] = %x, want %x", p, form, b, c, got[c], wants[b][c])
					}
				}
			}

			single := make([]float64, np)
			n1 := rk.FusedGatherRow(single, pins[0], bias, clip)
			checkRow("single", 0, single, n1)

			var quads [4][]float64
			for b := range quads {
				quads[b] = make([]float64, np)
			}
			var qn [4]int
			rk.FusedGatherRow4(quads[0], quads[1], quads[2], quads[3],
				pins[0], pins[1], pins[2], pins[3], bias, clip, &qn)
			for b := range quads {
				checkRow("quad", b, quads[b], qn[b])
			}

			var outs, pins8 [8][]float64
			for b := range outs {
				outs[b] = make([]float64, np)
				pins8[b] = pins[b]
			}
			var on [8]int
			rk.FusedGatherRow8(&outs, &pins8, bias, clip, &on)
			for b := range outs {
				checkRow("octet", b, outs[b], on[b])
			}

			scatterWant := make([]float64, np)
			wantSN := m.FusedScatterRow(scatterWant, ins[0], bias, clip)
			scatterGot := make([]float64, np)
			scratch := make([]float64, np)
			gotSN := rk.FusedScatterRowStockham(scatterGot, pins[0], nil, scratch, bias, clip)
			if gotSN != wantSN {
				t.Fatalf("%v: stockham scatter nnz = %d, want %d", p, gotSN, wantSN)
			}
			sg := unpackBy(scatterGot, p.OutPackPos)
			for c := range sg {
				if sg[c] != scatterWant[c] {
					t.Fatalf("%v: stockham scatter out[%d] = %x, want %x", p, c, sg[c], scatterWant[c])
				}
			}

			// Handed the nonzero positions the way the engine's staging scan
			// records them, the scatter must match its own scanning form bit
			// for bit (and hence the CSR oracle).
			var nz []int32
			for i, v := range pins[0] {
				if v != 0 {
					nz = append(nz, int32(i))
				}
			}
			nzGot := make([]float64, np)
			gotNZN := rk.FusedScatterRowStockham(nzGot, pins[0], nz, scratch, bias, clip)
			if gotNZN != wantSN {
				t.Fatalf("%v: NZ scatter nnz = %d, want %d", p, gotNZN, wantSN)
			}
			for c := range nzGot {
				if nzGot[c] != scatterGot[c] {
					t.Fatalf("%v: NZ scatter out[%d] = %x, want %x", p, c, nzGot[c], scatterGot[c])
				}
			}
			pv *= r
		}
	}
}

// TestRadixKernelStockhamRefresh: the Stockham weight copy is the one value
// array not shared with CSC/CSR storage; RefreshValues must resync it after
// in-place weight mutation.
func TestRadixKernelStockhamRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, k, rk := buildRadixTrio(t, rng, 12, 2, 3, 1, 1)
	if err := rk.EnableStockham(); err != nil {
		t.Fatal(err)
	}
	p := rk.Plan()
	in := randomInput(rng, m.Rows(), 1)
	pin := packBy(in, p.InPackPos)

	vals := m.Values()
	for i := range vals {
		vals[i] *= -1.25
	}
	if err := k.Refresh(m); err != nil {
		t.Fatal(err)
	}
	rk.RefreshValues()

	want := make([]float64, m.Cols())
	k.FusedGatherRow(want, in, -0.1, 0)
	got := make([]float64, m.Cols())
	rk.FusedGatherRow(got, pin, -0.1, 0)
	for c := range want {
		if got[p.OutPackPos(c)] != want[c] {
			t.Fatalf("post-refresh stockham out[%d] = %x, want %x", c, got[p.OutPackPos(c)], want[c])
		}
	}
}

// TestEnableStockhamRejectsKronLift: Kronecker-lifted layers have no packed
// layout; EnableStockham must refuse rather than scramble.
func TestEnableStockhamRejectsKronLift(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	_, _, rk := buildRadixTrio(t, rng, 12, 2, 3, 2, 1)
	if err := rk.EnableStockham(); err == nil {
		t.Fatal("EnableStockham accepted a Kronecker-lifted plan")
	}
	if rk.Stockham() {
		t.Fatal("failed EnableStockham left the kernel in Stockham mode")
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

// oneWeightTrio is buildRadixTrio with every weight equal to w, in Stockham
// mode.
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
	if err := rk.EnableStockham(); err != nil {
		t.Fatal(err)
	}
	return m, k, rk
}

// TestOneWeightFollowsValues: a Stockham layer whose values are all equal,
// whatever the value, keeps no Stockham copy of its own and reads its CSC
// storage; one changed edge gives it a copy, and restoring the value makes it
// share again.
func TestOneWeightFollowsValues(t *testing.T) {
	for _, w := range []float64{0.3, -0.5, 0, math.Inf(1), 3} {
		if _, _, rk := oneWeightTrio(t, 16, 4, 4, w); &rk.stVals[0] != &rk.cscVals[0] {
			t.Errorf("weight %v: an all-equal layer keeps its own Stockham copy", w)
		}
	}
	m, k, rk := oneWeightTrio(t, 16, 4, 4, 0.25)
	vals := m.Values()
	last := len(vals) - 1
	refresh := func() {
		t.Helper()
		if err := k.Refresh(m); err != nil {
			t.Fatal(err)
		}
		rk.RefreshValues()
	}
	shared := func() bool { return &rk.stVals[0] == &rk.cscVals[0] }
	vals[last] = 0.5
	refresh()
	if shared() {
		t.Error("one edge changed: the Stockham stream still reads the CSC storage")
	}
	vals[last] = 0.25
	refresh()
	if !shared() {
		t.Error("value restored: the Stockham stream keeps its own copy")
	}
}

// BenchmarkOctet times the Stockham octet on eight dense rows of one layer,
// in ns per edge: the weighted form (fusedGatherRow8ST behind
// FusedGatherRow8) on one weight, 4/fan-in, and again on perturbed weights.
// Shapes: the two Graph Challenge 1024 layers (radix 32 at ν = 1 and ν = 32),
// the two of radix (8,8) and the middle and last layers of radix (8,8,8).
// Where the engine runs the layer as a quotient, a quotient cell adds the
// numbered layer's two quad gathers over the eight rows' class vectors, still
// per nominal edge — the edges the classes stand for — so it reads against
// weighted: a closing layer numbered from rows one class apiece, as behind a
// per-column layer, and an opening layer numbered from the row of period
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
		in := packedClasses(rk.Plan())
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
		rk.RefreshValues()
		if &rk.stVals[0] == &rk.cscVals[0] {
			b.Fatalf("%s: perturbed weights still read as one", s.name)
		}
		run("perturbed", func() { rk.FusedGatherRow8(&outs, &ins, -0.1, 32, &nnz) })
	}
}
