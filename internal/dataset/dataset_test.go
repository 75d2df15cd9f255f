package dataset

import (
	"math"
	"testing"
)

func TestDigitsShapeAndDeterminism(t *testing.T) {
	a, err := Digits(50, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.X.Rows() != 50 || a.X.Cols() != DigitFeatures || a.Classes != 10 {
		t.Fatalf("shape %dx%d classes=%d", a.X.Rows(), a.X.Cols(), a.Classes)
	}
	for _, l := range a.Labels {
		if l < 0 || l > 9 {
			t.Fatalf("label %d out of range", l)
		}
	}
	b, err := Digits(50, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := a.X.MaxAbsDiff(b.X)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatal("same seed must reproduce identical data")
	}
	c, _ := Digits(50, 0.05, 43)
	diff, _ = a.X.MaxAbsDiff(c.X)
	if diff == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestDigitsValueRange(t *testing.T) {
	d, err := Digits(30, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.X.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %g outside [0,1]", v)
		}
	}
}

func TestDigitsGlyphsAreDistinguishable(t *testing.T) {
	// Noise-free class means must differ pairwise; otherwise the task would
	// be degenerate.
	d, err := Digits(400, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	means := make([][]float64, 10)
	counts := make([]int, 10)
	for i := range means {
		means[i] = make([]float64, DigitFeatures)
	}
	for i := 0; i < d.X.Rows(); i++ {
		l := d.Labels[i]
		counts[l]++
		for j, v := range d.X.RowSlice(i) {
			means[l][j] += v
		}
	}
	for k := 0; k < 10; k++ {
		if counts[k] == 0 {
			t.Fatalf("class %d unsampled in 400 draws", k)
		}
		for j := range means[k] {
			means[k][j] /= float64(counts[k])
		}
	}
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			var dist float64
			for j := range means[a] {
				diff := means[a][j] - means[b][j]
				dist += diff * diff
			}
			if math.Sqrt(dist) < 0.5 {
				t.Fatalf("classes %d and %d nearly identical (dist %g)", a, b, math.Sqrt(dist))
			}
		}
	}
}

func TestDigitsErrors(t *testing.T) {
	if _, err := Digits(0, 0.1, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Digits(10, -0.1, 1); err == nil {
		t.Fatal("negative noise accepted")
	}
}

func TestGaussians(t *testing.T) {
	d, err := Gaussians(90, 4, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.X.Rows() != 90 || d.X.Cols() != 4 || d.Classes != 3 {
		t.Fatal("gaussian shape wrong")
	}
	// Balanced classes.
	counts := make([]int, 3)
	for _, l := range d.Labels {
		counts[l]++
	}
	for k, c := range counts {
		if c != 30 {
			t.Fatalf("class %d count = %d, want 30", k, c)
		}
	}
	if _, err := Gaussians(1, 4, 3, 1, 5); err == nil {
		t.Fatal("n < classes accepted")
	}
	if _, err := Gaussians(10, 0, 3, 1, 5); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := Gaussians(10, 2, 1, 1, 5); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestSplit(t *testing.T) {
	d, _ := Digits(100, 0.1, 9)
	train, test, err := d.Split(0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.X.Rows() != 80 || test.X.Rows() != 20 {
		t.Fatalf("split sizes %d/%d", train.X.Rows(), test.X.Rows())
	}
	if train.Classes != 10 || test.Classes != 10 {
		t.Fatal("classes lost in split")
	}
	if _, _, err := d.Split(0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, _, err := d.Split(1, 1); err == nil {
		t.Fatal("full fraction accepted")
	}
}

func TestTargets(t *testing.T) {
	d, _ := Gaussians(6, 2, 3, 1, 2)
	tg, err := d.Targets()
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range d.Labels {
		for c := 0; c < 3; c++ {
			want := 0.0
			if c == l {
				want = 1.0
			}
			if tg.At(i, c) != want {
				t.Fatalf("target (%d,%d) = %g", i, c, tg.At(i, c))
			}
		}
	}
	if _, err := (&Dataset{Labels: []int{3}, Classes: 3}).Targets(); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestSparseBatch(t *testing.T) {
	b, err := SparseBatch(10, 64, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		nnz := 0
		for _, v := range b.RowSlice(r) {
			if v != 0 {
				nnz++
				if v < 0.1 || v > 1 {
					t.Fatalf("value %g outside (0.1,1]", v)
				}
			}
		}
		if nnz != 5 {
			t.Fatalf("row %d has %d nonzeros, want 5", r, nnz)
		}
	}
	if _, err := SparseBatch(10, 4, 5, 3); err == nil {
		t.Fatal("nnz > width accepted")
	}
	if _, err := SparseBatch(0, 4, 2, 3); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestFunc1D(t *testing.T) {
	f := func(x float64) float64 { return 2 * x }
	x, y, err := Func1D(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(0, 0) != 0 || x.At(4, 0) != 1 {
		t.Fatal("endpoints missing")
	}
	for i := 0; i < 5; i++ {
		if y.At(i, 0) != 2*x.At(i, 0) {
			t.Fatalf("target mismatch at %d", i)
		}
	}
	if _, _, err := Func1D(f, 1); err == nil {
		t.Fatal("single point accepted")
	}
}
