package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randMatrix draws a random float64 CSR matrix.
func randMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	pat := randPattern(rng, rows, cols, density)
	vals := make([]float64, pat.NNZ())
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	m, err := NewMatrix(pat, vals)
	if err != nil {
		panic(err)
	}
	return m
}

func denseAlmostEqual(a, b *Dense, tol float64) bool {
	d, err := a.MaxAbsDiff(b)
	return err == nil && d <= tol
}

func TestNewMatrixValidation(t *testing.T) {
	pat := Ones(2, 2)
	if _, err := NewMatrix(pat, make([]float64, 3)); err == nil {
		t.Fatal("value-length mismatch accepted")
	}
	if _, err := NewMatrix(pat, make([]float64, 4)); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
}

func TestMatrixFromPatternAt(t *testing.T) {
	pat, _ := NewPattern(2, 3, [][]int{{0, 2}, {1}})
	m := MatrixFromPattern(pat, 2.5)
	if m.At(0, 0) != 2.5 || m.At(0, 2) != 2.5 || m.At(1, 1) != 2.5 {
		t.Fatal("stored entries wrong")
	}
	if m.At(0, 1) != 0 || m.At(1, 0) != 0 {
		t.Fatal("missing entries must read zero")
	}
}

func TestVecMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMatrix(rng, 6, 8, 0.5)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, err := m.VecMul(x)
	if err != nil {
		t.Fatal(err)
	}
	d := m.ToDense()
	for c := 0; c < 8; c++ {
		var want float64
		for r := 0; r < 6; r++ {
			want += x[r] * d.At(r, c)
		}
		if math.Abs(got[c]-want) > 1e-12 {
			t.Fatalf("VecMul col %d = %g, want %g", c, got[c], want)
		}
	}
	if _, err := m.VecMul(make([]float64, 2)); err == nil {
		t.Fatal("wrong vector length accepted")
	}
}

func TestDenseMulAgainstDenseReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		batch, inner, out := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		m := randMatrix(rng, inner, out, 0.2+0.6*rng.Float64())
		x, _ := NewDense(batch, inner)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		got, err := m.DenseMul(x)
		if err != nil {
			return false
		}
		want, err := x.MatMul(m.ToDense())
		if err != nil {
			return false
		}
		return denseAlmostEqual(got, want, 1e-10)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpGEMMAgainstDenseReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMatrix(rng, 1+rng.Intn(12), 1+rng.Intn(12), 0.2+0.6*rng.Float64())
		b := randMatrix(rng, a.Cols(), 1+rng.Intn(12), 0.2+0.6*rng.Float64())
		got, err := a.Mul(b)
		if err != nil {
			return false
		}
		want, err := a.ToDense().MatMul(b.ToDense())
		if err != nil {
			return false
		}
		return denseAlmostEqual(got.ToDense(), want, 1e-10)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpGEMMShapeError(t *testing.T) {
	a := MatrixFromPattern(Ones(2, 3), 1)
	b := MatrixFromPattern(Ones(4, 2), 1)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("nonconforming SpGEMM accepted")
	}
}

func TestScale(t *testing.T) {
	m := MatrixFromPattern(Ones(2, 2), 3)
	m.Scale(0.5)
	for _, v := range m.Values() {
		if v != 1.5 {
			t.Fatalf("scaled value = %g, want 1.5", v)
		}
	}
}

func TestMatrixTransposeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.5)
		tr := m.Transpose()
		if tr.Rows() != m.Cols() || tr.Cols() != m.Rows() {
			return false
		}
		for r := 0; r < m.Rows(); r++ {
			for c := 0; c < m.Cols(); c++ {
				if m.At(r, c) != tr.At(c, r) {
					return false
				}
			}
		}
		// Involution.
		back := tr.Transpose()
		d, err := m.ToDense().MaxAbsDiff(back.ToDense())
		return err == nil && d == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixAddAgainstDenseProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randMatrix(rng, rows, cols, 0.4)
		b := randMatrix(rng, rows, cols, 0.4)
		sum, err := a.Add(b)
		if err != nil {
			return false
		}
		want := a.ToDense()
		if err := want.AddInPlace(b.ToDense()); err != nil {
			return false
		}
		return denseAlmostEqual(sum.ToDense(), want, 1e-12)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixAddShapeError(t *testing.T) {
	a := MatrixFromPattern(Ones(2, 3), 1)
	b := MatrixFromPattern(Ones(3, 2), 1)
	if _, err := a.Add(b); err == nil {
		t.Fatal("add shape mismatch accepted")
	}
}

func TestRowEntriesOrder(t *testing.T) {
	pat, _ := NewPattern(1, 5, [][]int{{4, 0, 2}})
	m, _ := NewMatrix(pat, []float64{1, 2, 3}) // aligned to sorted cols 0,2,4
	var cols []int
	var vals []float64
	m.RowEntries(0, func(c int, v float64) {
		cols = append(cols, c)
		vals = append(vals, v)
	})
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 2 || cols[2] != 4 {
		t.Fatalf("cols = %v", cols)
	}
	if vals[0] != 1 || vals[1] != 2 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
}
