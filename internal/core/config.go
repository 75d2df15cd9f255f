// Package core implements the RadiX-Net generator of Robinett & Kepner
// (2019): deterministic construction of sparse, symmetric, path-connected
// deep neural network topologies from mixed-radix numeral systems and
// Kronecker products (§III of the paper, algorithm of Fig. 6).
//
// A RadiX-Net is parameterized by an ordered set N* = (N1, …, NM) of
// mixed-radix numeral systems and a dense shape D = (D0, …, D𝕄), where
// 𝕄 = Σ Li is the total number of radices. The first M−1 systems must share
// the same product N′ and the last system's product must divide N′. The
// resulting topology has 𝕄+1 node layers of widths Di·N′.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"

	"github.com/radix-net/radixnet/internal/radix"
)

// ErrNoSystems is returned when a Config has no mixed-radix systems.
var ErrNoSystems = errors.New("core: a RadiX-Net needs at least one mixed-radix system")

// ErrProductMismatch is returned when the first M−1 systems do not share the
// same product N′ (paper constraint 1).
var ErrProductMismatch = errors.New("core: all systems except the last must have equal products N′")

// ErrNotDivisor is returned when the last system's product does not divide
// N′ (paper constraint 2).
var ErrNotDivisor = errors.New("core: the last system's product must divide N′")

// ErrBadShape is returned when the dense shape D has the wrong length or a
// non-positive entry.
var ErrBadShape = errors.New("core: dense shape D must have 𝕄+1 positive entries")

// Config fully determines a RadiX-Net topology. The zero value is invalid;
// construct with NewConfig (which validates) or set the fields and call
// Validate.
type Config struct {
	// Systems is the ordered set N* of mixed-radix numeral systems.
	Systems []radix.System
	// Shape is the dense DNN shape D = (D0, …, D𝕄), one entry per node
	// layer. A nil Shape means all ones (a pure extended mixed-radix
	// topology, as in Lemma 2 of the paper).
	Shape []int
}

// NewConfig assembles and validates a Config. A nil shape selects all ones.
func NewConfig(systems []radix.System, shape []int) (Config, error) {
	c := Config{Systems: append([]radix.System(nil), systems...), Shape: append([]int(nil), shape...)}
	if len(shape) == 0 {
		c.Shape = nil
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the RadiX-Net constraints of §III.A: at least one system,
// equal products N′ for all but the last system, last product dividing N′,
// and a positive dense shape of length 𝕄+1 (when present).
func (c Config) Validate() error {
	if len(c.Systems) == 0 {
		return ErrNoSystems
	}
	for i, s := range c.Systems {
		if s.Len() == 0 {
			return fmt.Errorf("core: system %d is empty: %w", i, radix.ErrEmpty)
		}
	}
	np := c.Systems[0].Product()
	for i := 0; i < len(c.Systems)-1; i++ {
		if c.Systems[i].Product() != np {
			return fmt.Errorf("%w: system %d has product %d, want %d",
				ErrProductMismatch, i, c.Systems[i].Product(), np)
		}
	}
	if last := c.Systems[len(c.Systems)-1].Product(); np%last != 0 {
		return fmt.Errorf("%w: %d does not divide N′=%d", ErrNotDivisor, last, np)
	}
	if c.Shape != nil {
		if len(c.Shape) != c.TotalRadices()+1 {
			return fmt.Errorf("%w: got %d entries, want %d", ErrBadShape, len(c.Shape), c.TotalRadices()+1)
		}
		for i, d := range c.Shape {
			if d < 1 {
				return fmt.Errorf("%w: D%d = %d", ErrBadShape, i, d)
			}
		}
	}
	return nil
}

// NPrime returns N′, the product shared by the first M−1 systems (and of the
// first system when M = 1). Every pre-lift layer has N′ nodes.
func (c Config) NPrime() int { return c.Systems[0].Product() }

// LastProduct returns N″ = ∏ N_M, the product of the last system, which
// divides N′. When N″ < N′ the generalized path-count formula applies
// (erratum E-b, see TestErratumEbDivisorLastSystem).
func (c Config) LastProduct() int { return c.Systems[len(c.Systems)-1].Product() }

// NumSystems returns M, the number of mixed-radix systems.
func (c Config) NumSystems() int { return len(c.Systems) }

// TotalRadices returns 𝕄 = Σ Li, the number of edge layers of the topology.
func (c Config) TotalRadices() int {
	total := 0
	for _, s := range c.Systems {
		total += s.Len()
	}
	return total
}

// FlatRadices returns (N̄1, …, N̄𝕄): the radices of all systems flattened in
// order, as used by the density formula eq. (4).
func (c Config) FlatRadices() []int {
	out := make([]int, 0, c.TotalRadices())
	for _, s := range c.Systems {
		out = append(out, s.Radices()...)
	}
	return out
}

// ShapeOrOnes returns the dense shape D, substituting all ones when Shape is
// nil. The result has 𝕄+1 entries.
func (c Config) ShapeOrOnes() []int {
	if c.Shape != nil {
		return append([]int(nil), c.Shape...)
	}
	shape := make([]int, c.TotalRadices()+1)
	for i := range shape {
		shape[i] = 1
	}
	return shape
}

// LayerWidths returns the node counts of all 𝕄+1 layers of the built
// topology: Di·N′.
func (c Config) LayerWidths() []int {
	shape := c.ShapeOrOnes()
	widths := make([]int, len(shape))
	for i, d := range shape {
		widths[i] = d * c.NPrime()
	}
	return widths
}

// NumNodes returns the total node count Σ Di·N′ as a big integer (brain-
// scale configurations overflow int edge counts, so all closed-form counts
// use big arithmetic).
func (c Config) NumNodes() *big.Int {
	total := new(big.Int)
	np := big.NewInt(int64(c.NPrime()))
	for _, d := range c.ShapeOrOnes() {
		total.Add(total, new(big.Int).Mul(big.NewInt(int64(d)), np))
	}
	return total
}

// NumEdges returns the exact total edge count Σ N̄i·N′·Di−1·Di in closed
// form (no construction).
func (c Config) NumEdges() *big.Int {
	shape := c.ShapeOrOnes()
	radices := c.FlatRadices()
	np := big.NewInt(int64(c.NPrime()))
	total := new(big.Int)
	for i, r := range radices {
		term := new(big.Int).Mul(big.NewInt(int64(r)), np)
		term.Mul(term, big.NewInt(int64(shape[i])))
		term.Mul(term, big.NewInt(int64(shape[i+1])))
		total.Add(total, term)
	}
	return total
}

// DenseEdges returns the edge count of the fully-connected topology on the
// same layer widths, Σ (Di−1·N′)(Di·N′).
func (c Config) DenseEdges() *big.Int {
	shape := c.ShapeOrOnes()
	np := big.NewInt(int64(c.NPrime()))
	np2 := new(big.Int).Mul(np, np)
	total := new(big.Int)
	for i := 0; i+1 < len(shape); i++ {
		term := new(big.Int).Mul(big.NewInt(int64(shape[i])), big.NewInt(int64(shape[i+1])))
		term.Mul(term, np2)
		total.Add(total, term)
	}
	return total
}

// MeanRadix returns µ, the mean of the flattened radices, the driver of the
// density approximations (5) and (6).
func (c Config) MeanRadix() float64 {
	radices := c.FlatRadices()
	sum := 0
	for _, r := range radices {
		sum += r
	}
	return float64(sum) / float64(len(radices))
}

// RadixVariance returns the population variance of the flattened radices;
// the approximations (5)–(6) assume it is small.
func (c Config) RadixVariance() float64 {
	radices := c.FlatRadices()
	mu := c.MeanRadix()
	var acc float64
	for _, r := range radices {
		d := float64(r) - mu
		acc += d * d
	}
	return acc / float64(len(radices))
}

// Depth returns d = log_µ N′ (§III.B), the effective number of radices per
// system at mean radix µ.
func (c Config) Depth() float64 {
	return math.Log(float64(c.NPrime())) / math.Log(c.MeanRadix())
}

// TheoreticalPaths returns the exact number of paths between any input and
// output node, by the generalized form of Theorem 1:
//
//	m = N″ · (N′)^{M−2} · ∏_{i=1}^{𝕄−1} Di    (M ≥ 2 systems)
//	m = 1 · ∏_{i=1}^{𝕄−1} Di                  (M = 1 system)
//
// which reduces to the paper's (N′)^{M−1}·∏Di when N″ = N′. The published
// formula needs the N″ correction when the last system's product is a
// proper divisor of N′ (erratum E-b, see TestErratumEbDivisorLastSystem).
func (c Config) TheoreticalPaths() *big.Int {
	m := big.NewInt(1)
	if c.NumSystems() >= 2 {
		m.SetInt64(int64(c.LastProduct()))
		np := big.NewInt(int64(c.NPrime()))
		for i := 0; i < c.NumSystems()-2; i++ {
			m.Mul(m, np)
		}
	}
	shape := c.ShapeOrOnes()
	for i := 1; i+1 < len(shape); i++ {
		m.Mul(m, big.NewInt(int64(shape[i])))
	}
	return m
}

// PaperTheoreticalPaths returns the path count exactly as printed in
// Theorem 1, (N′)^{M−1}·∏_{i=1}^{𝕄−1}Di, which matches TheoreticalPaths
// exactly when the last system's product equals N′. Kept for the erratum
// test battery.
func (c Config) PaperTheoreticalPaths() *big.Int {
	m := big.NewInt(1)
	np := big.NewInt(int64(c.NPrime()))
	for i := 0; i < c.NumSystems()-1; i++ {
		m.Mul(m, np)
	}
	shape := c.ShapeOrOnes()
	for i := 1; i+1 < len(shape); i++ {
		m.Mul(m, big.NewInt(int64(shape[i])))
	}
	return m
}

// String renders the config in the paper's notation, e.g.
// "N*=((3,3,4),(3,3,4),(2,3)) D=(1,2,2,2,2,2,1)".
func (c Config) String() string {
	var b strings.Builder
	b.WriteString("N*=(")
	for i, s := range c.Systems {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String())
	}
	b.WriteString(")")
	if c.Shape != nil {
		b.WriteString(" D=(")
		for i, d := range c.Shape {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", d)
		}
		b.WriteString(")")
	}
	return b.String()
}
