package sparse

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBigFromPattern(t *testing.T) {
	p, _ := NewPattern(2, 3, [][]int{{0, 2}, {1}})
	b := BigFromPattern(p)
	if b.At(0, 0).Int64() != 1 || b.At(0, 1).Int64() != 0 || b.At(1, 1).Int64() != 1 {
		t.Fatal("BigFromPattern entries wrong")
	}
}

func TestBigMulPatternAgainstIntReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randPattern(rng, rows, inner, 0.5)
		b := randPattern(rng, inner, cols, 0.5)
		got, err := BigFromPattern(a).MulPattern(b)
		if err != nil {
			return false
		}
		// int reference: path counts of length-2 compositions.
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				want := 0
				for k := 0; k < inner; k++ {
					if a.Has(r, k) && b.Has(k, c) {
						want++
					}
				}
				if got.At(r, c).Int64() != int64(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBigMulPatternShapeError(t *testing.T) {
	b, _ := NewBigDense(2, 3)
	if _, err := b.MulPattern(Ones(4, 2)); err == nil {
		t.Fatal("nonconforming MulPattern accepted")
	}
}

func TestBigAllEqual(t *testing.T) {
	b, _ := NewBigDense(2, 2)
	if v, ok := b.AllEqual(); !ok || v.Sign() != 0 {
		t.Fatal("zero matrix is all-equal to 0")
	}
	b.At(1, 1).SetInt64(5)
	if _, ok := b.AllEqual(); ok {
		t.Fatal("mixed matrix reported all-equal")
	}
}

func TestBigVecPropagation(t *testing.T) {
	// Propagating e_u through a chain of patterns must equal the u-th row of
	// the BigDense product of the same chain.
	rng := rand.New(rand.NewSource(21))
	n := 6
	chain := []*Pattern{
		randPattern(rng, n, n, 0.5),
		randPattern(rng, n, n, 0.5),
		randPattern(rng, n, n, 0.5),
	}
	full := BigFromPattern(chain[0])
	for _, p := range chain[1:] {
		next, err := full.MulPattern(p)
		if err != nil {
			t.Fatal(err)
		}
		full = next
	}
	for u := 0; u < n; u++ {
		vec := E(n, u)
		for _, p := range chain {
			next, err := vec.MulPattern(p)
			if err != nil {
				t.Fatal(err)
			}
			vec = next
		}
		for c := 0; c < n; c++ {
			if vec[c].Cmp(full.At(u, c)) != 0 {
				t.Fatalf("streaming path count (%d,%d) = %v, dense = %v", u, c, vec[c], full.At(u, c))
			}
		}
	}
}

func TestBigVecAllEqual(t *testing.T) {
	v := NewBigVec(3)
	if val, ok := v.AllEqual(); !ok || val.Sign() != 0 {
		t.Fatal("zero vector is all-equal")
	}
	v[2].SetInt64(1)
	if _, ok := v.AllEqual(); ok {
		t.Fatal("mixed vector reported all-equal")
	}
}

func TestBigVecMulPatternShapeError(t *testing.T) {
	v := NewBigVec(3)
	if _, err := v.MulPattern(Ones(2, 2)); err == nil {
		t.Fatal("nonconforming vector product accepted")
	}
}

func TestEBasisVector(t *testing.T) {
	v := E(4, 2)
	for i := range v {
		want := int64(0)
		if i == 2 {
			want = 1
		}
		if v[i].Int64() != want {
			t.Fatalf("E(4,2)[%d] = %v", i, v[i])
		}
	}
}

func TestBigDenseLargeCountsExact(t *testing.T) {
	// Chain enough ones-matrices that the count exceeds int64: 100 layers of
	// 4x4 ones gives 4^99 paths scaled by... verify against big.Exp.
	n := 4
	layers := 40
	acc := BigFromPattern(Ones(n, n))
	for i := 1; i < layers; i++ {
		next, err := acc.MulPattern(Ones(n, n))
		if err != nil {
			t.Fatal(err)
		}
		acc = next
	}
	want := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(layers-1)), nil)
	v, ok := acc.AllEqual()
	if !ok {
		t.Fatal("ones-chain product must be constant")
	}
	if v.Cmp(want) != 0 {
		t.Fatalf("count = %v, want %v", v, want)
	}
	if v.IsInt64() {
		t.Fatal("test should exercise beyond-int64 counts")
	}
}
