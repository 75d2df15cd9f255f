package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawablePlans lists every (N′, ν, radix) a test in this repository can draw
// a layer from: infer's FuzzInferPathsAgree config decoder (one to three
// radices from its palette in any order, product at most 64, N′ the product or
// — when the last system drops a radix — a palette multiple of it) and
// FuzzStridePlan's parameters (two radices in 2–6, N′ up to three times their
// product).
func drawablePlans() [][3]int {
	seen := map[[3]int]bool{}
	var plans [][3]int
	digits := func(radices []int, np int) {
		pv := 1
		for _, r := range radices {
			if k := [3]int{np, pv, r}; !seen[k] {
				seen[k] = true
				plans = append(plans, k)
			}
			pv *= r
		}
	}
	palette := []int{2, 3, 4, 5, 8, 16, 32}
	var walk func(radices []int, prod int)
	walk = func(radices []int, prod int) {
		if len(radices) > 0 {
			digits(radices, prod)
			for _, r := range palette {
				if prod*r <= 64 {
					digits(radices, prod*r)
				}
			}
		}
		if len(radices) == 3 {
			return
		}
		for _, r := range palette {
			if prod*r <= 64 {
				walk(append(radices[:len(radices):len(radices)], r), prod*r)
			}
		}
	}
	walk(nil, 1)
	for r1 := 2; r1 <= 6; r1++ {
		for r2 := 2; r2 <= 6; r2++ {
			for mult := 1; mult <= 3; mult++ {
				digits([]int{r1, r2}, r1*r2*mult)
			}
		}
	}
	return plans
}

// TestClosedLayerClassesShareInRows is the paper-level fact the numbering
// relies on to collapse a closing layer, and its converse. The edge rule sends
// node j of a layer with place value ν and radix N to j + n·ν mod N′, n < N.
// When ν·N = N′ (m = radix) that is every node of j's residue class mod ν: all
// the columns of a class have the same in-rows, in the same ascending order —
// lo, lo+ν, …, lo+(radix−1)·ν without a lift — so under one weight they have
// one signature whatever numbers the rows carry. When ν·N < N′ the first two columns of every class differ,
// so on rows numbered one class apiece every column of an open layer is a
// class of its own. Checked, lifts included, on every plan the fuzz targets
// can draw.
func TestClosedLayerClassesShareInRows(t *testing.T) {
	closed, open := 0, 0
	for _, k := range drawablePlans() {
		np, pv, radix := k[0], k[1], k[2]
		for shape := 0; shape < 9; shape++ {
			dPrev, dNext := 1+shape/3, 1+shape%3
			pat := radixLayer(np, pv, radix, dPrev, dNext)
			plan, err := CompileStridePlan(pat, np, pv, radix, dPrev, dNext)
			if err != nil {
				t.Fatalf("np=%d pv=%d radix=%d %dx%d: %v", np, pv, radix, dPrev, dNext, err)
			}
			inRows := func(c int) (rows []int) {
				plan.ColInRows(c, func(r int) { rows = append(rows, r) })
				return rows
			}
			shared := true // every class: all its columns, in every block, one sequence
			for lo := 0; lo < pv; lo++ {
				first := fmt.Sprint(inRows(lo))
				for c := lo; c < plan.Cols(); c += pv {
					if fmt.Sprint(inRows(c)) != first {
						shared = false
					}
				}
				if two := fmt.Sprint(inRows(lo + pv)); plan.m > radix && two == first {
					t.Fatalf("%v: columns %d and %d of class %d share in-rows %s on an open layer", plan, lo, lo+pv, lo, first)
				}
			}
			if shared != (plan.m == radix) {
				t.Fatalf("%v: m = %d, radix = %d, but classes share their in-rows: %t", plan, plan.m, radix, shared)
			}
			if plan.m != radix {
				open++
				continue
			}
			closed++
			if dPrev > 1 {
				continue // a lift repeats the class in every input block
			}
			for c := 0; c < plan.Cols(); c++ {
				for j, r := range inRows(c) {
					if want := c%pv + j*pv; r != want {
						t.Fatalf("%v: column %d in-row %d is %d, want %d", plan, c, j, r, want)
					}
				}
			}
		}
	}
	if closed < 500 || open < 500 {
		t.Errorf("%d closed and %d open plans drawn; the enumeration no longer covers both", closed, open)
	}
}

// sameWord reports whether two outputs agree in every bit; two NaNs agree
// whatever their payloads (when both operands of an add are NaN the hardware
// keeps the first one's, and the compiler is free to commute the add).
func sameWord(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// quotientRow runs the class vector v through q — as one row, and as each of
// the four rows of a quad — and returns what a quotient step hands on: the row
// v stands for, expanded through outClass, and the whole row's live count,
// each class counting once per column.
func quotientRow(t *testing.T, q *Kernel, outClass, mult []int32, v []float64, bias, clip float64) (row []float64, live int) {
	t.Helper()
	cls := make([]float64, q.Cols())
	n := q.FusedGatherRow(cls, v, bias, clip)
	var quad [4][]float64
	for j := range quad {
		quad[j] = make([]float64, q.Cols())
	}
	var n4 [4]int
	q.FusedGatherRow4(quad[0], quad[1], quad[2], quad[3], v, v, v, v, bias, clip, &n4)
	for j := range quad {
		for i := range cls {
			if !sameWord(quad[j][i], cls[i]) || n4[j] != n {
				t.Fatalf("quad row %d: class %d = %v (%d live), single row %v (%d live)", j, i, quad[j][i], n4[j], cls[i], n)
			}
		}
	}
	for i, v := range cls {
		if v != 0 {
			live += int(mult[i])
		}
	}
	row = make([]float64, len(outClass))
	for c, i := range outClass {
		row[c] = cls[i]
	}
	return row, live
}

// TestClosedGatherBitIdentical: the quotient of a closing layer, numbered from
// rows one class apiece in natural order as the engine numbers them, against the CSC kernel on four closing layers — Graph Challenge 1024's,
// radix (8,8,8)'s, (2,32)'s and (5,3)'s — under weights that are and are not
// powers of two, negative and zero, every bias sign, the cap on and off, and
// rows of ordinary values, of specials (NaN, ±Inf, −0), of 3–7-ulp subnormals
// and of MaxFloat64/4. The last two are where an UNWEIGHTED class sum scaled
// once rounds or overflows differently; the weighted chain has no such window.
// Every output word and every live count must match, and the layer must number
// into its ν residue classes.
func TestClosedGatherBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, s := range []struct{ np, pv, radix int }{{1024, 32, 32}, {512, 64, 8}, {64, 2, 32}, {15, 5, 3}} {
		specials, subnormal, huge := randomInput(rng, s.np, 0.9), make([]float64, s.np), make([]float64, s.np)
		for n := 0; n < 4+s.np/16; n++ {
			specials[rng.Intn(s.np)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
		}
		for c := range huge {
			subnormal[c] = float64(3+rng.Intn(5)) * 5e-324
			huge[c] = math.MaxFloat64 / 4
		}
		rows := []struct {
			name string
			x    []float64
		}{{"ordinary", randomInput(rng, s.np, 0.9)}, {"specials", specials}, {"subnormal", subnormal}, {"huge", huge}}
		for _, w := range []float64{0.125, 0.3, -0.5, 0} {
			_, k, rk := oneWeightTrio(t, s.np, s.pv, s.radix, w)
			q, outClass, mult := NewQuotient(k, naturalClasses(rk.plan))
			if q.Cols() != s.pv {
				t.Fatalf("%v weight %v: %d classes, want %d", rk.plan, w, q.Cols(), s.pv)
			}
			for _, row := range rows {
				name, x := row.name, row.x
				for _, bias := range []float64{-0.1, 0, 0.25} {
					for _, clip := range []float64{0, 32} {
						want := make([]float64, s.np)
						wantN := k.FusedGatherRow(want, x, bias, clip)
						got, gotN := quotientRow(t, q, outClass, mult, x, bias, clip) // row r is class r
						what := fmt.Sprintf("%v weight %v bias %v cap %v, %s row", rk.plan, w, bias, clip, name)
						if gotN != wantN {
							t.Errorf("%s: %d live outputs, want %d", what, gotN, wantN)
						}
						for c := range want {
							if !sameWord(got[c], want[c]) {
								t.Fatalf("%s: col %d = %x (%v), want %x (%v)", what, c, math.Float64bits(got[c]), got[c], math.Float64bits(want[c]), want[c])
							}
						}
					}
				}
			}
		}
	}
}

// naturalClasses numbers each input row of a plan as the identity: rows one
// class apiece, as a per-column layer leaves them.
func naturalClasses(p *StridePlan) []int32 {
	in := make([]int32, p.Rows())
	for r := range in {
		in[r] = int32(r)
	}
	return in
}

// TestClosedFollowsValues: a closing layer numbers into its ν classes under one
// weight, whatever it is, an opening one into a class per column, and the
// numbering follows the values through Refresh in both directions: one edge
// written splits its column off its class, and writing the value back joins
// them again.
func TestClosedFollowsValues(t *testing.T) {
	classes := func(k *Kernel, p *StridePlan) int {
		q, _, _ := NewQuotient(k, naturalClasses(p))
		return q.Cols()
	}
	for _, w := range []float64{0.25, 0.3, -0.5, 0} {
		if _, k, rk := oneWeightTrio(t, 16, 4, 4, w); classes(k, rk.plan) != 4 {
			t.Errorf("closing layer, weight %v: %d classes, want 4", w, classes(k, rk.plan))
		}
	}
	if _, k, rk := oneWeightTrio(t, 16, 1, 4, 0.25); classes(k, rk.plan) != 16 {
		t.Errorf("opening layer (m = 16, radix 4): %d classes, want 16", classes(k, rk.plan))
	}
	m, k, rk := oneWeightTrio(t, 16, 4, 4, 0.25)
	vals := m.Values()
	for _, c := range []struct {
		v    float64
		want int
	}{{0.5, 5}, {0.25, 4}} {
		vals[len(vals)-1] = c.v
		if err := k.Refresh(m); err != nil {
			t.Fatal(err)
		}
		if got := classes(k, rk.plan); got != c.want {
			t.Errorf("last edge = %v: %d classes, want %d", c.v, got, c.want)
		}
	}
}
