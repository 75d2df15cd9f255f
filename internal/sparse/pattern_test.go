package sparse

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randPattern draws a random pattern with no empty-row/column guarantees.
func randPattern(rng *rand.Rand, rows, cols int, density float64) *Pattern {
	rowCols := make([][]int, rows)
	for r := range rowCols {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				rowCols[r] = append(rowCols[r], c)
			}
		}
	}
	p, err := NewPattern(rows, cols, rowCols)
	if err != nil {
		panic(err)
	}
	return p
}

// boolMul is the dense reference for pattern multiplication.
func boolMul(a, b [][]bool) [][]bool {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]bool, rows)
	for r := range out {
		out[r] = make([]bool, cols)
		for k := 0; k < inner; k++ {
			if !a[r][k] {
				continue
			}
			for c := 0; c < cols; c++ {
				if b[k][c] {
					out[r][c] = true
				}
			}
		}
	}
	return out
}

func boolEqual(a [][]bool, p *Pattern) bool {
	if len(a) != p.Rows() || len(a[0]) != p.Cols() {
		return false
	}
	for r := range a {
		for c := range a[r] {
			if a[r][c] != p.Has(r, c) {
				return false
			}
		}
	}
	return true
}

func TestNewPatternValidation(t *testing.T) {
	if _, err := NewPattern(0, 3, nil); err == nil {
		t.Fatal("zero rows should fail")
	}
	if _, err := NewPattern(2, 0, [][]int{nil, nil}); err == nil {
		t.Fatal("zero cols should fail")
	}
	if _, err := NewPattern(2, 3, [][]int{{0}}); err == nil {
		t.Fatal("wrong row count should fail")
	}
	if _, err := NewPattern(2, 3, [][]int{{3}, nil}); err == nil {
		t.Fatal("out-of-range column should fail")
	}
	if _, err := NewPattern(2, 3, [][]int{{-1}, nil}); err == nil {
		t.Fatal("negative column should fail")
	}
}

func TestNewPatternSortsAndDedupes(t *testing.T) {
	p, err := NewPattern(2, 4, [][]int{{3, 1, 1, 0}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (dedup)", p.NNZ())
	}
	row := p.Row(0)
	want := []int{0, 1, 3}
	for i, c := range want {
		if row[i] != c {
			t.Fatalf("row 0 = %v, want %v", row, want)
		}
	}
}

func TestIdentity(t *testing.T) {
	p := Identity(4)
	if p.NNZ() != 4 {
		t.Fatalf("identity NNZ = %d", p.NNZ())
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if p.Has(r, c) != (r == c) {
				t.Fatalf("identity wrong at (%d,%d)", r, c)
			}
		}
	}
}

func TestOnes(t *testing.T) {
	p := Ones(2, 3)
	if p.NNZ() != 6 || p.Density() != 1 {
		t.Fatalf("ones NNZ=%d density=%g", p.NNZ(), p.Density())
	}
}

func TestCyclicShiftOrientation(t *testing.T) {
	// Library orientation: (r, c) set iff c ≡ r+s (mod n).
	p := CyclicShift(5, 1)
	for r := 0; r < 5; r++ {
		if !p.Has(r, (r+1)%5) {
			t.Fatalf("shift(+1) missing (%d,%d)", r, (r+1)%5)
		}
	}
	// Negative shift reproduces the paper's eq. (2) literally: row 0 has its
	// one in the last column.
	q := CyclicShift(5, -1)
	if !q.Has(0, 4) {
		t.Fatal("shift(-1) row 0 should hit last column (paper eq. 2)")
	}
	// The two orientations are transposes of each other (erratum E-a).
	if !p.Transpose().Equal(q) {
		t.Fatal("CyclicShift(n,1) must be the transpose of CyclicShift(n,-1)")
	}
}

func TestCyclicShiftPowersCompose(t *testing.T) {
	// P^a · P^b = P^{a+b}.
	n := 7
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			pa, pb := CyclicShift(n, a), CyclicShift(n, b)
			prod, err := pa.Mul(pb)
			if err != nil {
				t.Fatal(err)
			}
			if !prod.Equal(CyclicShift(n, a+b)) {
				t.Fatalf("P^%d · P^%d != P^%d", a, b, a+b)
			}
		}
	}
}

func TestSumOfShiftsEqualsExplicitSum(t *testing.T) {
	// Wi = Σ P^{n·ν} built via SumOfShifts must equal the union of the
	// individual powers (eq. 1).
	n, nu := 12, 3
	shifts := []int{0, nu, 2 * nu, 3 * nu}
	got := SumOfShifts(n, shifts)
	want := CyclicShift(n, 0)
	for _, s := range shifts[1:] {
		u, err := want.Union(CyclicShift(n, s))
		if err != nil {
			t.Fatal(err)
		}
		want = u
	}
	if !got.Equal(want) {
		t.Fatal("SumOfShifts disagrees with explicit union of powers")
	}
}

func TestSumOfShiftsDedupes(t *testing.T) {
	p := SumOfShifts(4, []int{0, 4, 8, 1, 5})
	if p.RowDegree(0) != 2 { // 0≡4≡8 and 1≡5 (mod 4)
		t.Fatalf("degree = %d, want 2", p.RowDegree(0))
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPattern(rng, 1+rng.Intn(20), 1+rng.Intn(20), rng.Float64())
		return p.Transpose().Transpose().Equal(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposePreservesNNZAndFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randPattern(rng, 13, 9, 0.3)
	tr := p.Transpose()
	if tr.Rows() != p.Cols() || tr.Cols() != p.Rows() || tr.NNZ() != p.NNZ() {
		t.Fatal("transpose shape or nnz wrong")
	}
	for r := 0; r < p.Rows(); r++ {
		for _, c := range p.Row(r) {
			if !tr.Has(c, r) {
				t.Fatalf("transpose missing (%d,%d)", c, r)
			}
		}
	}
}

func TestMulAgainstDenseReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a := randPattern(rng, rows, inner, 0.1+0.5*rng.Float64())
		b := randPattern(rng, inner, cols, 0.1+0.5*rng.Float64())
		got, err := a.Mul(b)
		if err != nil {
			return false
		}
		return boolEqual(boolMul(a.DenseBool(), b.DenseBool()), got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMulShapeError(t *testing.T) {
	a := Ones(2, 3)
	b := Ones(4, 2)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("nonconforming Mul should fail")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randPattern(rng, n, n, 0.4)
		b := randPattern(rng, n, n, 0.4)
		c := randPattern(rng, n, n, 0.4)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equal(abc2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUnion(t *testing.T) {
	a, _ := NewPattern(2, 3, [][]int{{0, 2}, {1}})
	b, _ := NewPattern(2, 3, [][]int{{1, 2}, nil})
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.NNZ() != 4 {
		t.Fatalf("union NNZ = %d, want 4", u.NNZ())
	}
	for _, tc := range []struct{ r, c int }{{0, 0}, {0, 1}, {0, 2}, {1, 1}} {
		if !u.Has(tc.r, tc.c) {
			t.Fatalf("union missing (%d,%d)", tc.r, tc.c)
		}
	}
	if _, err := a.Union(Ones(3, 3)); err == nil {
		t.Fatal("shape mismatch union should fail")
	}
}

func TestIntersect(t *testing.T) {
	a, _ := NewPattern(2, 3, [][]int{{0, 1, 2}, {1}})
	b, _ := NewPattern(2, 3, [][]int{{1, 2}, {0}})
	got, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 || !got.Has(0, 1) || !got.Has(0, 2) {
		t.Fatalf("intersect = %v", got)
	}
	if _, err := a.Intersect(Ones(3, 3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestIntersectUnionDeMorganProperty(t *testing.T) {
	// |p| + |q| = |p∪q| + |p∩q| — inclusion–exclusion on edge sets.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		p := randPattern(rng, rows, cols, rng.Float64())
		q := randPattern(rng, rows, cols, rng.Float64())
		u, err := p.Union(q)
		if err != nil {
			return false
		}
		i, err := p.Intersect(q)
		if err != nil {
			return false
		}
		return p.NNZ()+q.NNZ() == u.NNZ()+i.NNZ()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccard(t *testing.T) {
	a := Identity(4)
	if j, err := a.Jaccard(a); err != nil || j != 1 {
		t.Fatalf("self Jaccard = %g, %v", j, err)
	}
	b := CyclicShift(4, 1)
	j, err := a.Jaccard(b)
	if err != nil {
		t.Fatal(err)
	}
	if j != 0 { // identity and shift share no entries
		t.Fatalf("disjoint Jaccard = %g", j)
	}
	// Two empty patterns are identical by convention.
	e1, _ := NewPattern(2, 2, [][]int{nil, nil})
	e2, _ := NewPattern(2, 2, [][]int{nil, nil})
	if j, _ := e1.Jaccard(e2); j != 1 {
		t.Fatalf("empty Jaccard = %g", j)
	}
}

func TestUnionCommutativeIdempotentProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		p := randPattern(rng, rows, cols, rng.Float64())
		q := randPattern(rng, rows, cols, rng.Float64())
		pq, _ := p.Union(q)
		qp, _ := q.Union(p)
		pp, _ := p.Union(p)
		return pq.Equal(qp) && pp.Equal(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	// (p·q)ᵀ = qᵀ·pᵀ.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPattern(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.5)
		q := randPattern(rng, p.Cols(), 1+rng.Intn(8), 0.5)
		pq, err := p.Mul(q)
		if err != nil {
			return false
		}
		qt, err := q.Transpose().Mul(p.Transpose())
		if err != nil {
			return false
		}
		return pq.Transpose().Equal(qt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKronAgainstDefinitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randPattern(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.5)
		b := randPattern(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.5)
		k := a.Kron(b)
		if k.Rows() != a.Rows()*b.Rows() || k.Cols() != a.Cols()*b.Cols() {
			return false
		}
		if k.NNZ() != a.NNZ()*b.NNZ() {
			return false
		}
		for i := 0; i < k.Rows(); i++ {
			for j := 0; j < k.Cols(); j++ {
				want := a.Has(i/b.Rows(), j/b.Cols()) && b.Has(i%b.Rows(), j%b.Cols())
				if k.Has(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestKronMixedProductProperty(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD) — the identity the paper's Theorem 1 proof
	// leans on (via Van Loan).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, p := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		q, r, s := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a := randPattern(rng, m, n, 0.6)
		c := randPattern(rng, n, p, 0.6)
		b := randPattern(rng, q, r, 0.6)
		d := randPattern(rng, r, s, 0.6)
		left, err := a.Kron(b).Mul(c.Kron(d))
		if err != nil {
			return false
		}
		ac, _ := a.Mul(c)
		bd, _ := b.Mul(d)
		return left.Equal(ac.Kron(bd))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKronWithOnesIsBlockReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := randPattern(rng, 5, 5, 0.4)
	k := Ones(2, 3).Kron(w)
	if k.Rows() != 10 || k.Cols() != 15 || k.NNZ() != 6*w.NNZ() {
		t.Fatal("ones-Kron shape or count wrong")
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for r := 0; r < 5; r++ {
				for c := 0; c < 5; c++ {
					if k.Has(a*5+r, b*5+c) != w.Has(r, c) {
						t.Fatalf("block (%d,%d) differs at (%d,%d)", a, b, r, c)
					}
				}
			}
		}
	}
}

func TestZeroRowColDetection(t *testing.T) {
	p, _ := NewPattern(3, 3, [][]int{{0, 1}, nil, {2}})
	if !p.HasZeroRow() {
		t.Fatal("row 1 is empty")
	}
	q, _ := NewPattern(2, 3, [][]int{{0}, {2}})
	if !q.HasZeroCol() {
		t.Fatal("column 1 is empty")
	}
	full := Ones(2, 2)
	if full.HasZeroRow() || full.HasZeroCol() {
		t.Fatal("ones has no empty rows or columns")
	}
}

func TestColDegrees(t *testing.T) {
	p, _ := NewPattern(3, 3, [][]int{{0, 1}, {1}, {1, 2}})
	deg := p.ColDegrees()
	want := []int{1, 3, 1}
	for i, w := range want {
		if deg[i] != w {
			t.Fatalf("ColDegrees = %v, want %v", deg, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	p, _ := NewPattern(2, 2, [][]int{{0}, {1}})
	s := p.String()
	if !strings.Contains(s, "1 .") || !strings.Contains(s, ". 1") {
		t.Fatalf("unexpected rendering:\n%s", s)
	}
	big := Ones(200, 200)
	if !strings.Contains(big.String(), "nnz=40000") {
		t.Fatal("large patterns should summarize")
	}
}

func TestEqualCatchesStructureDiff(t *testing.T) {
	a, _ := NewPattern(2, 2, [][]int{{0}, {1}})
	b, _ := NewPattern(2, 2, [][]int{{1}, {0}})
	c, _ := NewPattern(2, 2, [][]int{{0}, {1}})
	if a.Equal(b) {
		t.Fatal("different patterns compare equal")
	}
	if !a.Equal(c) {
		t.Fatal("identical patterns compare unequal")
	}
}
