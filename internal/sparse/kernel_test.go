package sparse

import (
	"math/rand"
	"testing"
)

// randomMatrix returns a rows×cols CSR matrix with ~density fill and
// rng-drawn values (including negatives).
func randomMatrix(t *testing.T, rng *rand.Rand, rows, cols int, density float64) *Matrix {
	t.Helper()
	rowCols := make([][]int, rows)
	for r := range rowCols {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				rowCols[r] = append(rowCols[r], c)
			}
		}
	}
	pat, err := NewPattern(rows, cols, rowCols)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, pat.NNZ())
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	m, err := NewMatrix(pat, vals)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKernelMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		m := randomMatrix(t, rng, rows, cols, 0.3)
		k, err := NewKernel(m)
		if err != nil {
			t.Fatal(err)
		}
		if k.Rows() != rows || k.Cols() != cols || k.NNZ() != m.NNZ() {
			t.Fatalf("kernel shape %dx%d nnz=%d, want %dx%d nnz=%d",
				k.Rows(), k.Cols(), k.NNZ(), rows, cols, m.NNZ())
		}
		in := make([]float64, rows)
		for i := range in {
			if rng.Float64() < 0.7 {
				in[i] = rng.NormFloat64()
			}
		}
		bias := rng.NormFloat64() * 0.3
		cap := 0.0
		if trial%2 == 0 {
			cap = rng.Float64() * 2
		}

		// Reference: CSR scatter followed by a separate epilogue pass.
		want, err := m.VecMul(in)
		if err != nil {
			t.Fatal(err)
		}
		wantNNZ := 0
		for c := range want {
			v := want[c] + bias
			if v < 0 {
				v = 0
			} else if cap > 0 && v > cap {
				v = cap
			}
			want[c] = v
			if v > 0 {
				wantNNZ++
			}
		}

		out := make([]float64, cols)
		nnz := k.FusedGatherRow(out, in, bias, cap)
		if nnz != wantNNZ {
			t.Fatalf("trial %d: gather nnz=%d, want %d", trial, nnz, wantNNZ)
		}
		for c := range out {
			if out[c] != want[c] {
				t.Fatalf("trial %d: out[%d] = %v, want %v (bit-compat violated)", trial, c, out[c], want[c])
			}
		}

		// The fused scatter dual must agree bitwise with the gather.
		scat := make([]float64, cols)
		for i := range scat {
			scat[i] = -99 // must be fully overwritten
		}
		nnz = m.FusedScatterRow(scat, in, bias, cap)
		if nnz != wantNNZ {
			t.Fatalf("trial %d: scatter nnz=%d, want %d", trial, nnz, wantNNZ)
		}
		for c := range scat {
			if scat[c] != want[c] {
				t.Fatalf("trial %d: scatter out[%d] = %v, want %v", trial, c, scat[c], want[c])
			}
		}
	}
}

func TestKernelGatherRow4MatchesSingleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		rows := 1 + rng.Intn(24)
		cols := 1 + rng.Intn(24)
		m := randomMatrix(t, rng, rows, cols, 0.3)
		k, err := NewKernel(m)
		if err != nil {
			t.Fatal(err)
		}
		ins := make([][]float64, 4)
		wants := make([][]float64, 4)
		wantNNZ := make([]int, 4)
		bias := rng.NormFloat64() * 0.2
		cap := float64(trial % 3) // includes cap=0
		for q := 0; q < 4; q++ {
			ins[q] = make([]float64, rows)
			for i := range ins[q] {
				if rng.Float64() < 0.6 {
					ins[q][i] = rng.NormFloat64()
				}
			}
			wants[q] = make([]float64, cols)
			wantNNZ[q] = k.FusedGatherRow(wants[q], ins[q], bias, cap)
		}
		outs := [4][]float64{
			make([]float64, cols), make([]float64, cols),
			make([]float64, cols), make([]float64, cols),
		}
		var nnz [4]int
		k.FusedGatherRow4(outs[0], outs[1], outs[2], outs[3],
			ins[0], ins[1], ins[2], ins[3], bias, cap, &nnz)
		for q := 0; q < 4; q++ {
			if nnz[q] != wantNNZ[q] {
				t.Fatalf("trial %d row %d: nnz=%d, want %d", trial, q, nnz[q], wantNNZ[q])
			}
			for c := range outs[q] {
				if outs[q][c] != wants[q][c] {
					t.Fatalf("trial %d row %d: out[%d] = %v, want %v (bit-compat violated)",
						trial, q, c, outs[q][c], wants[q][c])
				}
			}
		}
	}
}

func TestKernelAffineMatchesScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(15)
		cols := 1 + rng.Intn(15)
		m := randomMatrix(t, rng, rows, cols, 0.4)
		k, err := NewKernel(m)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]float64, rows)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		bias := make([]float64, cols)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		want, err := m.VecMul(in)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, cols)
		k.AffineGatherRow(out, in, bias)
		for c := range out {
			if out[c] != want[c]+bias[c] {
				t.Fatalf("trial %d: out[%d] = %v, want %v", trial, c, out[c], want[c]+bias[c])
			}
		}
	}
}

func TestKernelRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(t, rng, 8, 8, 0.5)
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 8)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	// Mutate the matrix values; the kernel must track them after Refresh.
	vals := m.Values()
	for i := range vals {
		vals[i] *= 2
	}
	if err := k.Refresh(m); err != nil {
		t.Fatal(err)
	}
	want, _ := m.VecMul(in)
	out := make([]float64, 8)
	k.AffineGatherRow(out, in, make([]float64, 8))
	for c := range out {
		if out[c] != want[c] {
			t.Fatalf("after refresh: out[%d] = %v, want %v", c, out[c], want[c])
		}
	}

	// A matrix on any pattern other than the kernel's own must be rejected,
	// even if the value count happens to match: the permutation is only
	// meaningful for the pattern the kernel was built from.
	other := randomMatrix(t, rng, 8, 8, 0.5)
	if err := k.Refresh(other); err == nil {
		t.Fatal("refresh with a foreign pattern accepted")
	}
}

// TestConstantMatricesShareUntilWritten pins what is stored once and where
// the sharing ends. Kernels on one pattern read one transposition; constant
// matrices and their kernels read one run, in every order; Values and Scale
// move the written matrix alone — and, at its next Refresh, its kernel — onto
// copies; caller-owned values (NewMatrix) are never aliased.
func TestConstantMatricesShareUntilWritten(t *testing.T) {
	pat := SumOfShifts(16, []int{0, 1, 2, 3})
	wide := SumOfShifts(16, []int{0, 4, 8, 12, 1})
	ms := ConstantMatrices([]*Pattern{pat, wide, pat}, 0.5)
	ks := make([]*Kernel, len(ms))
	for i, m := range ms {
		var err error
		if ks[i], err = NewKernel(m); err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != m.pat.NNZ() || cap(m.vals) != m.NNZ() {
			t.Fatalf("matrix %d: %d values (cap %d) on %d edges", i, m.NNZ(), cap(m.vals), m.pat.NNZ())
		}
	}
	if &ks[0].rowIdx[0] != &ks[2].rowIdx[0] || &ks[0].perm[0] != &ks[2].perm[0] || &ks[0].colPtr[0] != &ks[2].colPtr[0] {
		t.Error("two kernels on one pattern hold two transpositions")
	}
	if &ks[0].rowIdx[0] == &ks[1].rowIdx[0] {
		t.Error("kernels on different patterns share a transposition")
	}
	whole := ms[1].vals // the longest view: wide has the most edges
	run := &whole[0]
	for i := range ms {
		if &ms[i].vals[0] != run || &ks[i].vals[0] != run {
			t.Errorf("layer %d: constant matrix or its kernel is off the run", i)
		}
	}

	ms[0].Values()[5] = 3
	ms[1].Scale(2)
	for i := range ms {
		if err := ks[i].Refresh(ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if &ms[2].vals[0] != run || &ks[2].vals[0] != run {
		t.Error("writing its neighbours moved the untouched layer off the run")
	}
	for i, v := range whole {
		if v != 0.5 {
			t.Fatalf("run[%d] = %v after writes to other matrices, want 0.5", i, v)
		}
	}
	for i := 0; i < 2; i++ {
		if &ms[i].vals[0] == run || &ks[i].vals[0] == run || &ks[i].vals[0] == &ms[i].vals[0] {
			t.Errorf("layer %d: written matrix and its kernel must each own their values", i)
		}
	}
	if got := ks[0].vals[ks[0].perm[5]]; got != 3 || ms[1].vals[0] != 1 {
		t.Errorf("kernel entry for CSR index 5 = %v (want 3), scaled entry = %v (want 1)", got, ms[1].vals[0])
	}
	before := &ks[0].vals[0]
	if err := ks[0].Refresh(ms[0]); err != nil || &ks[0].vals[0] != before {
		t.Errorf("a second Refresh re-allocated the kernel's own values (err %v)", err)
	}

	own := make([]float64, pat.NNZ())
	m, err := NewMatrix(pat, own)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Values()[0] != &own[0] || &k.vals[0] == &own[0] {
		t.Error("NewMatrix must keep the caller's slice, and its kernel a reordered copy")
	}
}

func TestKernelEmptyColumns(t *testing.T) {
	// A column with no in-edges must still get the epilogue of zero.
	pat, err := NewPattern(2, 3, [][]int{{0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	m := MatrixFromPattern(pat, 1)
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	nnz := k.FusedGatherRow(out, []float64{1, 1}, 0.5, 0)
	if out[0] != 2.5 || out[1] != 0.5 || out[2] != 0.5 {
		t.Fatalf("out = %v", out)
	}
	if nnz != 3 {
		t.Fatalf("positive bias must mark every element live, nnz=%d", nnz)
	}
}

func TestKernelGatherDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(t, rng, 64, 64, 0.1)
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 64)
	out := make([]float64, 64)
	bias := make([]float64, 64)
	allocs := testing.AllocsPerRun(20, func() {
		k.FusedGatherRow(out, in, -0.1, 32)
		m.FusedScatterRow(out, in, -0.1, 32)
		k.AffineGatherRow(out, in, bias)
		if err := k.Refresh(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("kernel row ops allocated %g objects per run, want 0", allocs)
	}
}
