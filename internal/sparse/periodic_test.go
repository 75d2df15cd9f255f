package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPeriodicRowsShareChains is the paper-level fact the numbering relies on
// behind a closing layer. A closing layer with place value P leaves a
// P-periodic row (TestClosedLayerClassesShareInRows: a class's columns are one
// chain). On such a row the opening layer of the next system — ν = 1, so
// column t reads rows t−radix+1 … t — enumerates under ColInRows the same VALUE
// sequence at column t and at column t − P, for every t ≥ radix − 1 + P, so
// the two share a class; its radix − 1 wrapped columns join column radix−1's
// exactly when P divides the radix. Checked for every closing and opening plan
// of one width that the fuzz targets can draw. And what the numbering does not
// need: on a row that is not periodic — what a layer that is not closed
// leaves, the last system of a stack whose product only divides N′ included —
// columns a period apart share nothing; and under a lift a column's chain is
// dPrev·radix taps long.
func TestPeriodicRowsShareChains(t *testing.T) {
	byWidth := map[int][][3]int{}
	for _, k := range drawablePlans() {
		byWidth[k[0]] = append(byWidth[k[0]], k)
	}
	pairs := 0
	for np, plans := range byWidth {
		for _, open := range plans {
			radix := open[2]
			if open[1] != 1 || radix == np {
				continue
			}
			pat := radixLayer(np, 1, radix, 1, 1)
			plan, err := CompileStridePlan(pat, np, 1, radix, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			seq := func(p *StridePlan, x []float64, c int) string {
				var vals []float64
				p.ColInRows(c, func(r int) { vals = append(vals, x[r]) })
				return fmt.Sprint(vals)
			}
			distinct := make([]float64, 2*np)
			for r := range distinct {
				distinct[r] = float64(r + 1)
			}
			for _, closing := range plans {
				period := closing[1]
				if period*closing[2] != np {
					continue
				}
				pairs++
				x := make([]float64, np)
				for r := range x {
					x[r] = distinct[r%period]
				}
				for c := radix - 1 + period; c < np; c++ {
					if seq(plan, x, c) != seq(plan, x, c-period) {
						t.Fatalf("%v, period %d: columns %d and %d read %s and %s", plan, period, c, c-period, seq(plan, x, c), seq(plan, x, c-period))
					}
					if seq(plan, distinct, c) == seq(plan, distinct, c-period) {
						t.Fatalf("%v: columns %d and %d share a chain on a row that is not periodic", plan, c, c-period)
					}
				}
				for c := 0; c < radix-1; c++ {
					if same := seq(plan, x, c) == seq(plan, x, radix-1); same != (radix%period == 0) {
						t.Fatalf("%v, period %d: wrapped column %d equals column %d: %t", plan, period, c, radix-1, same)
					}
				}
			}
			// A lift: the chain is not radix taps long.
			lifted, err := CompileStridePlan(radixLayer(np, 1, radix, 2, 1), np, 1, radix, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			taps := 0
			lifted.ColInRows(radix, func(int) { taps++ })
			if taps != 2*radix {
				t.Fatalf("%v: %d taps a column, want %d", lifted, taps, 2*radix)
			}
		}
	}
	if pairs < 100 {
		t.Errorf("%d pairs drawn; the enumeration no longer covers the cases", pairs)
	}
}

// repeatingRows returns rows of each kind the bit-identity tests feed a kernel,
// every one repeating with the given period: ordinary values, specials (NaN,
// ±Inf, −0), 3–7-ulp subnormals and MaxFloat64/4.
func repeatingRows(rng *rand.Rand, np, period int) map[string][]float64 {
	rows := map[string][]float64{}
	for _, name := range []string{"ordinary", "specials", "subnormal", "huge"} {
		y := randomInput(rng, period, 0.9)
		switch name {
		case "specials":
			for n := 0; n < 1+period/8; n++ {
				y[rng.Intn(period)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
			}
		case "subnormal":
			for c := range y {
				y[c] = float64(3+rng.Intn(5)) * 5e-324
			}
		case "huge":
			for c := range y {
				y[c] = math.MaxFloat64 / 4
			}
		}
		x := make([]float64, np)
		for c := range x {
			x[c] = y[c%period]
		}
		rows[name] = x
	}
	return rows
}

// TestPeriodicGatherBitIdentical: the quotient of the opening layer of a
// second system, numbered from the P-periodic row a closing layer leaves (row r
// in class r mod P), and the quotient of the closing layer behind it, numbered
// by the opening layer's classes, against the CSC kernel — on Graph Challenge
// 1024's, (8,8)(8,8)'s, (16,4)(4,16)'s, where the period is four radices and
// the wrapped columns are classes of their own, and (8,2)(8,2)'s — under
// weights that are and are not powers of two, negative and zero, every bias
// sign, the cap on and off, and periodic rows of each kind: every word and live
// count of both layers, and the P + radix − 1 classes (P when P = radix) of the
// opening one. The subnormal row is where a chain that summed first and scaled
// once would round differently; the test checks that it would have noticed.
func TestPeriodicGatherBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	mutantSeen := false
	for _, s := range []struct{ np, period, radix int }{{1024, 32, 32}, {64, 8, 8}, {64, 16, 4}, {16, 8, 8}} {
		rows := repeatingRows(rng, s.np, s.period)
		periodic := make([]int32, s.np)
		for r := range periodic {
			periodic[r] = int32(r % s.period)
		}
		chains := s.period
		if s.period != s.radix {
			chains += s.radix - 1
		}
		for _, w := range []float64{0.125, 0.3, -0.5, 0} {
			_, k, rk := oneWeightTrio(t, s.np, 1, s.radix, w)
			_, kc, rkc := oneWeightTrio(t, s.np, s.radix, s.np/s.radix, w)
			q, outClass, mult := NewQuotient(k, periodic)
			qc, outClassC, multC := NewQuotient(kc, outClass)
			if q.Cols() != chains || qc.Cols() != s.radix {
				t.Fatalf("%v period %d weight %v: %d classes, want %d; %v behind it %d, want %d",
					rk.plan, s.period, w, q.Cols(), chains, rkc.plan, qc.Cols(), s.radix)
			}
			for name, x := range rows {
				for _, bias := range []float64{-0.1, 0, 0.25} {
					for _, clip := range []float64{0, 32} {
						what := fmt.Sprintf("%v period %d weight %v bias %v cap %v, %s row", rk.plan, s.period, w, bias, clip, name)
						want := make([]float64, s.np)
						wantN := k.FusedGatherRow(want, x, bias, clip)
						got, n := quotientRow(t, q, outClass, mult, x[:s.period], bias, clip)
						if n != wantN {
							t.Errorf("%s: %d live outputs, want %d", what, n, wantN)
						}
						for c, v := range got {
							if !sameWord(v, want[c]) {
								t.Fatalf("%s: col %d = %x (%v), want %x (%v)", what, c, math.Float64bits(v), v, math.Float64bits(want[c]), want[c])
							}
						}
						if name == "subnormal" && w == 0.125 && bias == 0 {
							// The mutant: sum the window, scale once.
							for c := s.radix - 1; c < s.np && !mutantSeen; c++ {
								var sum float64
								for _, v := range x[c-s.radix+1 : c+1] {
									sum += v
								}
								mutantSeen = !sameWord(max(sum*w, 0), want[c])
							}
						}

						cls := make([]float64, q.Cols())
						for c, i := range outClass {
							cls[i] = got[c]
						}
						want2 := make([]float64, s.np)
						want2N := kc.FusedGatherRow(want2, want, bias, clip)
						got2, n2 := quotientRow(t, qc, outClassC, multC, cls, bias, clip)
						if n2 != want2N {
							t.Errorf("%s, closing layer: %d live outputs, want %d", what, n2, want2N)
						}
						for c, v := range got2 {
							if !sameWord(v, want2[c]) {
								t.Fatalf("%s, closing layer: col %d = %x (%v), want %x (%v)", what, c, math.Float64bits(v), v, math.Float64bits(want2[c]), want2[c])
							}
						}
					}
				}
			}
		}
	}
	if !mutantSeen {
		t.Error("an unweighted chain scaled once agreed with the CSC kernel on every subnormal row: the rows no longer tell the two apart")
	}
}
