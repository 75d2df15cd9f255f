package core

import (
	"github.com/radix-net/radixnet/internal/parallel"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
	"github.com/radix-net/radixnet/internal/topology"
)

// MixedRadix returns the mixed-radix topology induced by the numeral system
// N (§III.A, Fig. 1): L+1 layers of N′ nodes where node j of layer i−1
// connects to nodes j + n·νi (mod N′) for n ∈ {0, …, Ni−1}, with νi the
// place value of digit i. Equivalently Wi = Σ_n P^{n·νi} (eq. 1–2).
//
// It is Build of the one-system config, so it panics only on an empty
// system.
func MixedRadix(sys radix.System) *topology.FNNT {
	g, err := EMR(sys)
	if err != nil {
		panic("core: mixed-radix construction cannot fail on its own product: " + err.Error())
	}
	return g
}

// EMR returns the extended mixed-radix topology of the given systems: the
// concatenation of their mixed-radix topologies with output layers
// identified label-wise with the next input layer (§III.A, Fig. 2). This is
// the RadiX-Net with all-ones dense shape (Lemma 2).
func EMR(systems ...radix.System) (*topology.FNNT, error) {
	cfg, err := NewConfig(systems, nil)
	if err != nil {
		return nil, err
	}
	return Build(cfg)
}

// Build generates the RadiX-Net topology of cfg by the algorithm of Fig. 6:
// for each system, accumulate Wi = Σ_j P^{j·pv} on N′ nodes with the place
// value pv running within the system; then Kronecker-lift each Wi with the
// all-ones Di−1×Di block of the dense shape (eq. 3).
//
// A layer is determined by (N′, place value, radix, Di−1, Di), and an extended
// stack repeats its systems, so a deep net has few distinct layers — Graph
// Challenge 1024×120 is (32,32) sixty times: two. Each distinct layer is built
// once, in parallel, and every position that has it holds the same immutable
// *sparse.Pattern; what is derived from a pattern (CSC transposition, stride
// plan) is then derived once too. Nothing is kept between calls: two builds of
// one config share nothing.
func Build(cfg Config) (*topology.FNNT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	np := cfg.NPrime()
	shape := cfg.ShapeOrOnes()

	type layerSpec struct{ radix, placeValue, dPrev, dNext int }
	specs := make([]layerSpec, 0, cfg.TotalRadices())
	index := make(map[layerSpec]int) // spec → position in distinct
	var distinct []layerSpec
	for _, sys := range cfg.Systems {
		for i := 0; i < sys.Len(); i++ {
			l := len(specs)
			s := layerSpec{sys.Radix(i), sys.PlaceValue(i), shape[l], shape[l+1]}
			if _, ok := index[s]; !ok {
				index[s] = len(distinct)
				distinct = append(distinct, s)
			}
			specs = append(specs, s)
		}
	}
	built := make([]*sparse.Pattern, len(distinct))
	parallel.BlocksGrain(len(distinct), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := distinct[i]
			shifts := make([]int, s.radix)
			for j := range shifts {
				shifts[j] = j * s.placeValue
			}
			// The W array of Fig. 6, then the Kronecker lift with the dense
			// shape (eq. 3); 1⊗W = W needs no copy.
			built[i] = sparse.SumOfShifts(np, shifts)
			if s.dPrev != 1 || s.dNext != 1 {
				built[i] = sparse.Ones(s.dPrev, s.dNext).Kron(built[i])
			}
		}
	})
	subs := make([]*sparse.Pattern, len(specs))
	for l, s := range specs {
		subs[l] = built[index[s]]
	}
	return topology.New(subs...)
}

// BuildReference generates the same topology as Build but directly from the
// definitions in §III.A — explicit edge enumeration j → j+n·νi (mod N′)
// into a coordinate builder, followed by definitional block replication for
// the Kronecker lift. It exists as an independent implementation against
// which Build is property-tested (experiment E5); it is exported because
// tests outside this package compare against it too.
func BuildReference(cfg Config) (*topology.FNNT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	np := cfg.NPrime()
	shape := cfg.ShapeOrOnes()

	subs := make([]*sparse.Pattern, 0, cfg.TotalRadices())
	layer := 0
	for _, sys := range cfg.Systems {
		for i := 0; i < sys.Len(); i++ {
			dPrev, dNext := shape[layer], shape[layer+1]
			coo, err := sparse.NewCOO(dPrev*np, dNext*np)
			if err != nil {
				return nil, err
			}
			nu := sys.PlaceValue(i)
			for a := 0; a < dPrev; a++ {
				for b := 0; b < dNext; b++ {
					for r := 0; r < np; r++ {
						for n := 0; n < sys.Radix(i); n++ {
							c := (r + n*nu) % np
							if err := coo.Add(a*np+r, b*np+c); err != nil {
								return nil, err
							}
						}
					}
				}
			}
			subs = append(subs, coo.Pattern())
			layer++
		}
	}
	return topology.New(subs...)
}
