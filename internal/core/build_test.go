package core

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/topology"
)

// --- Experiment E1: Figure 1 (mixed-radix topology of N = (2,2,2)) ---

// TestFig1MixedRadixGolden pins the exact edge structure of the paper's
// Figure 1: three layers of shifts {0,1}, {0,2}, {0,4} on 8 nodes.
func TestFig1MixedRadixGolden(t *testing.T) {
	g := MixedRadix(radix.MustNew(2, 2, 2))
	if g.NumLayers() != 4 {
		t.Fatalf("layers = %d, want 4", g.NumLayers())
	}
	for i := 0; i < 4; i++ {
		if g.LayerSize(i) != 8 {
			t.Fatalf("layer %d size = %d, want 8", i, g.LayerSize(i))
		}
	}
	offsets := []int{1, 2, 4} // place values ν1=1, ν2=2, ν3=4
	for l, off := range offsets {
		w := g.Sub(l)
		for j := 0; j < 8; j++ {
			row := w.Row(j)
			if len(row) != 2 {
				t.Fatalf("W%d row %d degree = %d, want 2", l+1, j, len(row))
			}
			if !w.Has(j, j) || !w.Has(j, (j+off)%8) {
				t.Fatalf("W%d row %d = %v, want {%d, %d}", l+1, j, row, j, (j+off)%8)
			}
		}
	}
	if g.NumEdges() != 48 {
		t.Fatalf("edges = %d, want 48", g.NumEdges())
	}
	if g.Density() != 0.25 {
		t.Fatalf("density = %g, want 0.25 (= µ/N′ = 2/8)", g.Density())
	}
}

// TestFig1DecisionTreeInterpretation checks the "overlapping decision trees"
// reading of Fig. 1: following digit choices (n1,n2,n3) from input node 0
// reaches output node n1·1 + n2·2 + n3·4 — the mixed-radix decoding.
func TestFig1DecisionTreeInterpretation(t *testing.T) {
	sys := radix.MustNew(2, 2, 2)
	g := MixedRadix(sys)
	for v := 0; v < 8; v++ {
		digits, err := sys.Decode(v)
		if err != nil {
			t.Fatal(err)
		}
		node := 0
		for l, d := range digits {
			next := (node + d*sys.PlaceValue(l)) % 8
			if !g.Sub(l).Has(node, next) {
				t.Fatalf("digit path to %d missing edge %d→%d at layer %d", v, node, next, l)
			}
			node = next
		}
		if node != v {
			t.Fatalf("digit path for %d ended at %d", v, node)
		}
	}
}

// --- Lemma 1: mixed-radix topologies are symmetric with exactly one path ---

func TestLemma1MixedRadixOnePathProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := randomSystem(rng, 4, 5)
		g := MixedRadix(sys)
		m, ok := g.Symmetric()
		return ok && m.Int64() == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomSystem draws a numeral system with ≤ maxLen radices each ≤ maxRadix+1.
func randomSystem(rng *rand.Rand, maxRadix, maxLen int) radix.System {
	l := 1 + rng.Intn(maxLen)
	radices := make([]int, l)
	for i := range radices {
		radices[i] = 2 + rng.Intn(maxRadix-1)
	}
	return radix.MustNew(radices...)
}

// --- Experiment E2: Figure 2 (EMR concatenation and constraints) ---

func TestFig2Concatenation(t *testing.T) {
	cfg := Fig2Config()
	if cfg.NPrime() != 36 {
		t.Fatalf("N′ = %d, want 36", cfg.NPrime())
	}
	if cfg.LastProduct() != 6 {
		t.Fatalf("last product = %d, want 6", cfg.LastProduct())
	}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 systems of 3 radices + 1 of 2 radices = 11 edge layers, all 36 wide.
	if g.NumSubs() != 11 {
		t.Fatalf("edge layers = %d, want 11", g.NumSubs())
	}
	for i := 0; i < g.NumLayers(); i++ {
		if g.LayerSize(i) != 36 {
			t.Fatalf("layer %d size = %d, want 36", i, g.LayerSize(i))
		}
	}
	m, ok := g.Symmetric()
	if !ok {
		t.Fatal("Fig. 2 EMR must be symmetric")
	}
	if m.Cmp(cfg.TheoreticalPaths()) != 0 {
		t.Fatalf("m = %v, theory %v", m, cfg.TheoreticalPaths())
	}
}

// --- Lemma 2: EMR symmetry and path counts ---

func TestLemma2EMRPathsFullProducts(t *testing.T) {
	// All systems share the full product: m = (N′)^{M−1} exactly as printed.
	s := radix.MustNew(2, 3) // N′ = 6
	for _, M := range []int{1, 2, 3, 4} {
		systems := make([]radix.System, M)
		for i := range systems {
			systems[i] = s
		}
		g, err := EMR(systems...)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := g.Symmetric()
		if !ok {
			t.Fatalf("M=%d: EMR not symmetric", M)
		}
		want := new(big.Int).Exp(big.NewInt(6), big.NewInt(int64(M-1)), nil)
		if m.Cmp(want) != 0 {
			t.Fatalf("M=%d: m = %v, want %v", M, m, want)
		}
	}
}

// TestErratumEbDivisorLastSystem exercises erratum E-b: with a
// divisor last system, symmetry still holds but the exact path count is
// N″·(N′)^{M−2}, below the paper's (N′)^{M−1}.
func TestErratumEbDivisorLastSystem(t *testing.T) {
	s := radix.MustNew(3, 4) // N′ = 12
	last := radix.MustNew(2, 3)
	cfg, err := NewConfig([]radix.System{s, s, last}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := g.Symmetric()
	if !ok {
		t.Fatal("divisor-last-system RadiX-Net must still be symmetric")
	}
	want := big.NewInt(6 * 12) // N″·(N′)^{M−2} = 6·12
	if m.Cmp(want) != 0 {
		t.Fatalf("exact m = %v, want %v", m, want)
	}
	if m.Cmp(cfg.TheoreticalPaths()) != 0 {
		t.Fatalf("generalized formula %v disagrees with exact %v", cfg.TheoreticalPaths(), m)
	}
	paper := cfg.PaperTheoreticalPaths() // 12² = 144
	if paper.Cmp(m) == 0 {
		t.Fatal("paper formula should OVERcount in the divisor case; it matched")
	}
	if paper.Int64() != 144 {
		t.Fatalf("paper formula = %v, want 144", paper)
	}
}

func TestFormulasAgreeWhenLastProductIsFull(t *testing.T) {
	s := radix.MustNew(2, 2, 2)
	cfg, err := NewConfig([]radix.System{s, s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TheoreticalPaths().Cmp(cfg.PaperTheoreticalPaths()) != 0 {
		t.Fatal("formulas must coincide when N″ = N′")
	}
}

// --- Experiment E5: Figure 6 algorithm vs definitional construction ---

// randomConfig draws a valid random RadiX-Net config, sometimes with a
// divisor last system and sometimes with a nontrivial dense shape.
func randomConfig(rng *rand.Rand) Config {
	// Choose N′ as a product of small radices.
	first := randomSystem(rng, 4, 3)
	np := first.Product()
	M := 1 + rng.Intn(3)
	systems := []radix.System{first}
	for i := 1; i < M; i++ {
		// Another system with the same product: reuse a permutation of the
		// factorization of N′.
		f, err := radix.Factorize(np)
		if err != nil {
			panic(err)
		}
		systems = append(systems, f)
	}
	// Optionally replace the last system with a proper-divisor system.
	if M >= 2 && rng.Intn(2) == 0 {
		divisors := []int{}
		for d := 2; d <= np; d++ {
			if np%d == 0 {
				divisors = append(divisors, d)
			}
		}
		d := divisors[rng.Intn(len(divisors))]
		f, err := radix.Factorize(d)
		if err != nil {
			panic(err)
		}
		systems[M-1] = f
	}
	total := 0
	for _, s := range systems {
		total += s.Len()
	}
	var shape []int
	if rng.Intn(2) == 0 {
		shape = make([]int, total+1)
		for i := range shape {
			shape[i] = 1 + rng.Intn(3)
		}
	}
	cfg, err := NewConfig(systems, shape)
	if err != nil {
		panic(err)
	}
	return cfg
}

func TestBuildMatchesReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		if cfg.NPrime() > 64 {
			return true // keep runtime bounded
		}
		a, err := Build(cfg)
		if err != nil {
			return false
		}
		b, err := BuildReference(cfg)
		if err != nil {
			return false
		}
		return a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Theorem 1 across random configs: symmetry + exact path counts, the
// streaming verifier, path-connectedness, and the paper's printed formula
// wherever the last system has the full product N′ ---

func TestTheorem1Property(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		if cfg.NPrime() > 48 || cfg.TotalRadices() > 8 {
			return true
		}
		g, err := Build(cfg)
		if err != nil {
			return false
		}
		m, ok := g.Symmetric()
		if !ok || m.Cmp(cfg.TheoreticalPaths()) != 0 {
			return false
		}
		if ms, ok := g.SymmetricStreaming(); !ok || ms.Cmp(m) != 0 {
			t.Logf("%s: streaming verifier disagrees with m = %v", cfg, m)
			return false
		}
		if !g.PathConnected() {
			t.Logf("%s: not path-connected", cfg)
			return false
		}
		if cfg.LastProduct() == cfg.NPrime() && cfg.PaperTheoreticalPaths().Cmp(m) != 0 {
			t.Logf("%s: paper formula %v, exact m = %v", cfg, cfg.PaperTheoreticalPaths(), m)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem1StreamingVerifierAgrees(t *testing.T) {
	cfg := Fig2Config()
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms, ok := g.SymmetricStreaming()
	if !ok {
		t.Fatal("streaming verifier rejected a symmetric net")
	}
	if ms.Cmp(cfg.TheoreticalPaths()) != 0 {
		t.Fatalf("streaming m = %v, want %v", ms, cfg.TheoreticalPaths())
	}
}

// --- Experiment E4: Figure 5 Kronecker lift ---

func TestFig5KroneckerLift(t *testing.T) {
	cfg, err := Fig5Config(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shape (3,5,4,2) over N′=4: layer widths 12, 20, 16, 8.
	want := []int{12, 20, 16, 8}
	for i, w := range want {
		if g.LayerSize(i) != w {
			t.Fatalf("layer sizes = %v, want %v", g.LayerSizes(), want)
		}
	}
	m, ok := g.Symmetric()
	if !ok {
		t.Fatal("Fig. 5 net must be symmetric")
	}
	if m.Cmp(cfg.TheoreticalPaths()) != 0 {
		t.Fatalf("m = %v, theory %v", m, cfg.TheoreticalPaths())
	}
}

func TestBuildSharesUnliftedSubmatrices(t *testing.T) {
	// With an all-ones shape the builder must not copy the mixed-radix
	// submatrices (1⊗W = W).
	cfg := Fig1Config()
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mr := MixedRadix(cfg.Systems[0])
	for i := 0; i < g.NumSubs(); i++ {
		if !g.Sub(i).Equal(mr.Sub(i)) {
			t.Fatalf("layer %d differs from bare mixed-radix topology", i)
		}
	}
}

// TestBuildSharesIdenticalLayers: positions with the same (place value, radix,
// lift) hold the same *Pattern and no others do, and sharing changes no edge —
// every layer still equals BuildReference's, which shares nothing.
func TestBuildSharesIdenticalLayers(t *testing.T) {
	gc, err := GraphChallengeConfig(1024, 120)
	if err != nil {
		t.Fatal(err)
	}
	r44 := radix.MustNew(4, 4)
	// (4,4)|(4,4) under shape 1,2,1,2,1: layers 0 and 2 have the same digit and
	// the same 1→2 lift, as have 1 and 3 (2→1). Under 1,2,1,1,1 layers 0 and 2
	// differ by lift alone, as do 1 and 3: nothing is shared.
	lifted, err := NewConfig([]radix.System{r44, r44}, []int{1, 2, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	ragged, err := NewConfig([]radix.System{r44, r44}, []int{1, 2, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// (2,8)|(8,2): radix 8 sits at ν=2 then ν=1, radix 2 at ν=1 then ν=8 — the
	// same radices at different place values, nothing to share.
	mixed, err := NewConfig([]radix.System{radix.MustNew(2, 8), radix.MustNew(8, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		class []int // layers with equal entries must share, others must not
	}{
		{"gc1024x120", gc, nil}, // filled below: l%2
		{"lifted", lifted, []int{0, 1, 0, 1}},
		{"ragged", ragged, []int{0, 1, 2, 3}},
		{"mixed", mixed, []int{0, 1, 2, 3}},
	} {
		if c.class == nil {
			c.class = make([]int, c.cfg.TotalRadices())
			for l := range c.class {
				c.class[l] = l % 2
			}
		}
		g, err := Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := BuildReference(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		distinct := make(map[any]bool)
		for l := 0; l < g.NumSubs(); l++ {
			distinct[g.Sub(l)] = true
			if !g.Sub(l).Equal(ref.Sub(l)) {
				t.Errorf("%s: layer %d differs from BuildReference", c.name, l)
			}
			for k := 0; k < l; k++ {
				if same := g.Sub(k) == g.Sub(l); same != (c.class[k] == c.class[l]) {
					t.Errorf("%s: layers %d and %d share a pattern: %t", c.name, k, l, same)
				}
				if ref.Sub(k) == ref.Sub(l) {
					t.Errorf("%s: BuildReference shares layers %d and %d", c.name, k, l)
				}
			}
		}
		if c.name == "gc1024x120" && len(distinct) != 2 {
			t.Errorf("Graph Challenge 1024×120 built %d distinct patterns, want 2", len(distinct))
		}
	}
}

// --- Streaming generation (E11 substrate) ---

func TestStreamLayerEdgesMatchesBuild(t *testing.T) {
	cfg, err := NewConfig(
		[]radix.System{radix.MustNew(2, 3), radix.MustNew(6)},
		[]int{2, 1, 3, 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < cfg.TotalRadices(); l++ {
		sub := g.Sub(l)
		seen := make(map[[2]int64]bool)
		err := StreamLayerEdges(cfg, l, func(u, v int64) bool {
			seen[[2]int64{u, v}] = true
			if !sub.Has(int(u), int(v)) {
				t.Errorf("layer %d: streamed edge (%d,%d) absent from built pattern", l, u, v)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != sub.NNZ() {
			t.Fatalf("layer %d: streamed %d distinct edges, pattern has %d", l, len(seen), sub.NNZ())
		}
		count, err := EdgesInLayer(cfg, l)
		if err != nil {
			t.Fatal(err)
		}
		if count.Int64() != int64(sub.NNZ()) {
			t.Fatalf("layer %d: closed-form count %v, pattern has %d", l, count, sub.NNZ())
		}
	}
}

func TestStreamEdgesEarlyStop(t *testing.T) {
	cfg := Fig1Config()
	calls := 0
	err := StreamEdges(cfg, func(layer int, u, v int64) bool {
		calls++
		return calls < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("early stop after %d calls, want 5", calls)
	}
}

func TestStreamLayerEdgesErrors(t *testing.T) {
	cfg := Fig1Config()
	if err := StreamLayerEdges(cfg, -1, func(u, v int64) bool { return true }); err == nil {
		t.Fatal("negative layer accepted")
	}
	if err := StreamLayerEdges(cfg, 3, func(u, v int64) bool { return true }); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
	if _, err := EdgesInLayer(cfg, 7); err == nil {
		t.Fatal("out-of-range layer accepted by EdgesInLayer")
	}
}

// TestEMREqualsConcatOfMixedRadix pins that the generator's EMR equals the
// explicit topology.Concat of individually built mixed-radix topologies —
// the construction §III.A describes in prose.
func TestEMREqualsConcatOfMixedRadix(t *testing.T) {
	s1 := radix.MustNew(2, 6)
	s2 := radix.MustNew(3, 4)
	s3 := radix.MustNew(12)
	viaGenerator, err := EMR(s1, s2, s3)
	if err != nil {
		t.Fatal(err)
	}
	viaConcat := MixedRadix(s1)
	for _, s := range []radix.System{s2, s3} {
		next, err := topology.Concat(viaConcat, MixedRadix(s))
		if err != nil {
			t.Fatal(err)
		}
		viaConcat = next
	}
	if !viaGenerator.Equal(viaConcat) {
		t.Fatal("EMR differs from explicit concatenation of mixed-radix topologies")
	}
}

// TestStreamLayerEdgesDeterministicOrder pins the documented enumeration
// order so downstream consumers can rely on reproducible file output.
func TestStreamLayerEdgesDeterministicOrder(t *testing.T) {
	cfg := Fig1Config()
	var a, b [][2]int64
	collect := func(dst *[][2]int64) func(u, v int64) bool {
		return func(u, v int64) bool {
			*dst = append(*dst, [2]int64{u, v})
			return true
		}
	}
	if err := StreamLayerEdges(cfg, 1, collect(&a)); err != nil {
		t.Fatal(err)
	}
	if err := StreamLayerEdges(cfg, 1, collect(&b)); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("repeat enumeration changed length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Source nodes are non-decreasing in the documented order.
	for i := 1; i < len(a); i++ {
		if a[i][0] < a[i-1][0] {
			t.Fatalf("source order violated at %d", i)
		}
	}
}

// --- Presets ---

func TestGraphChallengeConfig(t *testing.T) {
	cfg, err := GraphChallengeConfig(1024, 120)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NPrime() != 1024 || cfg.TotalRadices() != 120 {
		t.Fatalf("N′=%d layers=%d", cfg.NPrime(), cfg.TotalRadices())
	}
	// Every neuron has 32 connections at base width.
	widths := cfg.LayerWidths()
	if widths[0] != 1024 {
		t.Fatalf("width = %d", widths[0])
	}
	perLayer, err := EdgesInLayer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if perLayer.Int64() != 1024*32 {
		t.Fatalf("layer edges = %v, want 32768", perLayer)
	}
	// Lifted width.
	cfg4, err := GraphChallengeConfig(4096, 120)
	if err != nil {
		t.Fatal(err)
	}
	if cfg4.LayerWidths()[0] != 4096 {
		t.Fatalf("lifted width = %d", cfg4.LayerWidths()[0])
	}
	// Invalid inputs.
	if _, err := GraphChallengeConfig(1000, 120); err == nil {
		t.Fatal("non-multiple width accepted")
	}
	if _, err := GraphChallengeConfig(1024, 121); err == nil {
		t.Fatal("odd layer count accepted")
	}
	if _, err := GraphChallengeConfig(0, 120); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestUniformConfig(t *testing.T) {
	cfg, err := UniformConfig(4, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NPrime() != 64 || cfg.TotalRadices() != 6 {
		t.Fatalf("uniform config %v", cfg)
	}
	// Zero-variance: eq. (6) must be exact.
	exact := Density(cfg)
	approx := DensityApproxMuD(4, 3)
	if diff := exact - approx; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("eq. (6) not exact at zero variance: %g vs %g", exact, approx)
	}
	if _, err := UniformConfig(4, 3, 0, 1); err == nil {
		t.Fatal("zero systems accepted")
	}
	if _, err := UniformConfig(4, 3, 2, 0); err == nil {
		t.Fatal("zero lift accepted")
	}
}

func TestUniformConfigWithLift(t *testing.T) {
	cfg, err := UniformConfig(3, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	widths := cfg.LayerWidths()
	if widths[0] != 9 || widths[1] != 18 || widths[len(widths)-1] != 9 {
		t.Fatalf("widths = %v", widths)
	}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Symmetric(); !ok {
		t.Fatal("lifted uniform config must be symmetric")
	}
}

func TestBrainConfig(t *testing.T) {
	stats, err := BrainConfig(1e-6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Neurons.Sign() <= 0 || stats.Synapses.Sign() <= 0 {
		t.Fatal("brain stats must be positive")
	}
	if stats.Density <= 0 || stats.Density >= 1 {
		t.Fatalf("brain density %g out of (0,1)", stats.Density)
	}
	if err := stats.Config.Validate(); err != nil {
		t.Fatalf("brain config invalid: %v", err)
	}
	if _, err := BrainConfig(0, 4); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := BrainConfig(2, 4); err == nil {
		t.Fatal("scale > 1 accepted")
	}
	if _, err := BrainConfig(0.5, 3); err == nil {
		t.Fatal("odd layer count accepted")
	}
}

func TestBrainConfigFullScaleArithmetic(t *testing.T) {
	// At full scale the closed-form counts must be brain-sized even though
	// nothing is materialized: ≥ 1e10 neurons, ≥ 1e13 synapses.
	stats, err := BrainConfig(1, 120)
	if err != nil {
		t.Fatal(err)
	}
	tenBillion := new(big.Int).Mul(big.NewInt(10), big.NewInt(1_000_000_000))
	if stats.Neurons.Cmp(tenBillion) < 0 {
		t.Fatalf("full-scale neurons = %v, want ≥ 1e10", stats.Neurons)
	}
	tenTrillion := new(big.Int).Mul(big.NewInt(10_000), big.NewInt(1_000_000_000))
	if stats.Synapses.Cmp(tenTrillion) < 0 {
		t.Fatalf("full-scale synapses = %v, want ≥ 1e13", stats.Synapses)
	}
	if stats.NeuronRatio < 0.1 || stats.NeuronRatio > 10 {
		t.Fatalf("neuron ratio %g implausible", stats.NeuronRatio)
	}
}

func TestFigConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{Fig1Config(), Fig2Config()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset config invalid: %v", err)
		}
	}
	if _, err := Fig5Config(4); err != nil {
		t.Fatalf("Fig5Config(4): %v", err)
	}
	if _, err := Fig5Config(7); err != nil {
		t.Fatalf("Fig5Config(7) prime: %v", err)
	}
}
