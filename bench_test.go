// Benchmark harness and experiment index: one benchmark per experiment (the
// paper's Figures 1–7, Lemmas/Theorem, and the deferred evaluations
// E9–E12), plus the design-choice ablations at the end of the file. Each
// section header below names the experiment it reproduces.
package radixnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/radix-net/radixnet/internal/approx"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/nn"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
	"github.com/radix-net/radixnet/internal/topology"
	"github.com/radix-net/radixnet/internal/xnet"
)

// --- E1: Figure 1 — mixed-radix topology construction ---

func BenchmarkFig1_MixedRadix(b *testing.B) {
	for _, size := range []struct {
		name string
		sys  []int
	}{
		{"N=2,2,2", []int{2, 2, 2}},
		{"N=16,16", []int{16, 16}},
		{"N=32,32", []int{32, 32}},
		{"N=8,8,8,8", []int{8, 8, 8, 8}},
	} {
		sys := radix.MustNew(size.sys...)
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := core.MixedRadix(sys)
				if g.NumEdges() == 0 {
					b.Fatal("empty topology")
				}
			}
		})
	}
}

// --- E2: Figure 2 — EMR concatenation ---

func BenchmarkFig2_EMRConcat(b *testing.B) {
	s := radix.MustNew(3, 3, 4)
	last := radix.MustNew(2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := core.EMR(s, s, s, last)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumSubs() != 11 {
			b.Fatal("wrong depth")
		}
	}
}

// --- E3: Figure 3–4 — full adjacency assembly (eq. 11) ---

func BenchmarkFig4_AdjacencyAssembly(b *testing.B) {
	cfg := core.Fig2Config()
	g, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := g.Assemble()
		if a.NNZ() != g.NumEdges() {
			b.Fatal("assembly lost edges")
		}
	}
}

// --- E4: Figure 5 — Kronecker lift ---

func BenchmarkFig5_KroneckerLift(b *testing.B) {
	for _, lift := range []int{2, 4, 8} {
		cfg, err := core.UniformConfig(8, 2, 2, lift)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("lift=%d", lift), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := core.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = g.NumEdges()
			}
		})
	}
}

// --- E5: Figure 6 — the generator itself, and vs the reference ---

func BenchmarkFig6_Generator(b *testing.B) {
	cfg, err := core.GraphChallengeConfig(1024, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := core.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = g.NumEdges()
	}
}

func BenchmarkFig6_ReferenceConstruction(b *testing.B) {
	cfg := core.Fig2Config()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := core.BuildReference(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = g.NumEdges()
	}
}

// --- E6: Figure 7 — density sweep over (µ, d) ---

func BenchmarkFig7_DensitySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := core.DensityMap(2, 16, 1, 8)
		if len(cells) == 0 {
			b.Fatal("empty map")
		}
	}
}

// --- E7: Theorem 1 — exact symmetry verification strategies ---

func BenchmarkTheorem1_VerifyDense(b *testing.B) {
	cfg := core.Fig2Config()
	g, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Symmetric(); !ok {
			b.Fatal("not symmetric")
		}
	}
}

func BenchmarkTheorem1_VerifyStreaming(b *testing.B) {
	cfg := core.Fig2Config()
	g, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.SymmetricStreaming(); !ok {
			b.Fatal("not symmetric")
		}
	}
}

// --- E8: X-Net baselines — construction cost at matched density ---

func BenchmarkXNetVsRadix_Construct(b *testing.B) {
	sizes := []int{256, 256, 256}
	b.Run("radix-net", func(b *testing.B) {
		cfg, err := core.NewConfig([]radix.System{radix.MustNew(16, 16)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random-xnet", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xnet.RandomXNet(sizes, 16, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cayley-xnet", func(b *testing.B) {
		gens := make([]int, 16)
		for i := range gens {
			gens[i] = i * 5
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xnet.CayleyXNet(256, 2, gens); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bernoulli", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xnet.BernoulliNet(sizes, 1.0/16, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: training throughput, sparse vs dense (Alford & Kepner substitute) ---

func BenchmarkTrainEpoch_RadixNet(b *testing.B) {
	benchTrainEpoch(b, true)
}

func BenchmarkTrainEpoch_Dense(b *testing.B) {
	benchTrainEpoch(b, false)
}

func benchTrainEpoch(b *testing.B, useSparse bool) {
	rng := rand.New(rand.NewSource(1))
	data, err := dataset.Gaussians(256, 32, 8, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	targets, err := data.Targets()
	if err != nil {
		b.Fatal(err)
	}
	var net *nn.Network
	if useSparse {
		cfg, err := core.NewConfig([]radix.System{radix.MustNew(16, 16)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		topo, err := core.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		first, _ := nn.NewDenseLinear(32, 256, rng)
		last, _ := nn.NewDenseLinear(256, 8, rng)
		net, err = nn.NewNetwork(
			first, nn.ReLU(),
			nn.NewSparseLinear(topo.Sub(0), rng), nn.ReLU(),
			nn.NewSparseLinear(topo.Sub(1), rng), nn.ReLU(),
			last,
		)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		net, err = nn.DenseNet([]int{32, 256, 256, 256, 8}, nn.ReLU, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	tr := &nn.Trainer{Net: net, Opt: &nn.Adam{LR: 0.003}, Loss: nn.SoftmaxCrossEntropy{}, BatchSize: 64, Seed: 1}
	shuffle := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainEpoch(data.X, targets, shuffle); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(net.NumParams()), "params")
}

// --- E10: Graph Challenge inference throughput ---

// BenchmarkGCInference runs each Graph Challenge shape twice: with the
// weights FromConfig assigns (one weight per layer, so every layer past the
// first runs as a quotient — on the lifted 4096-wide stack too) and with the
// same weights perturbed by 1 %, which puts every layer on the per-column
// kernels. The pair reproduces the quotients' margin without radixbench.
func BenchmarkGCInference(b *testing.B) {
	for _, spec := range []struct {
		width, layers int
		perturbed     bool
	}{
		{1024, 24, false}, {1024, 24, true},
		{1024, 120, false}, {1024, 120, true},
		{4096, 24, false}, {4096, 24, true},
	} {
		name := fmt.Sprintf("w=%d_l=%d", spec.width, spec.layers)
		if spec.perturbed {
			name += "_perturbed"
		}
		b.Run(name, func(b *testing.B) {
			cfg, err := core.GraphChallengeConfig(spec.width, spec.layers)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := infer.FromConfig(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if spec.perturbed {
				engine.PerturbWeights(0.01, 1)
			}
			batch, err := dataset.SparseBatch(16, spec.width, spec.width/10, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Infer(batch); err != nil {
					b.Fatal(err)
				}
			}
			edgesPerOp := float64(16) * float64(engine.TotalNNZ())
			b.ReportMetric(edgesPerOp*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkE10_Infer times the fused CSC-gather kernel stack (ping-pong
// buffers, fused epilogue, active-row tracking) on the acceptance workload:
// a radix [8,8,8,8] stack (width 4096) at batch 64. It must report
// 0 allocs/op in steady state.
func BenchmarkE10_Infer(b *testing.B) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8, 8)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// The CSC engine on perturbed weights: every layer runs per column, so
	// this benchmark keeps tracking the fused gather/scatter pair, not the
	// quotients (BenchmarkGCInference times those).
	engine, err := infer.FromConfigKernel(cfg, infer.KernelCSC)
	if err != nil {
		b.Fatal(err)
	}
	engine.PerturbWeights(0.01, 1)
	width := 8 * 8 * 8 * 8
	batch, err := dataset.SparseBatch(64, width, width/10, 1)
	if err != nil {
		b.Fatal(err)
	}
	edgesPerOp := float64(batch.Rows()) * float64(engine.TotalNNZ())
	b.Run("fused", func(b *testing.B) {
		if _, err := engine.Infer(batch); err != nil { // size the buffers
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Infer(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(edgesPerOp*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})
}

// BenchmarkEngineBuild times infer.FromConfigKernel — what a model
// registration, a hot reload and an autoscaler ScaleTo each pay — and with
// -benchmem what it allocates, on a stack with two distinct layers in 120
// (Graph Challenge 1024×120) and on one where every layer is distinct (radix
// (8,8,8)), for both kinds: KernelAuto's numbering is what it adds.
func BenchmarkEngineBuild(b *testing.B) {
	gc, err := core.GraphChallengeConfig(1024, 120)
	if err != nil {
		b.Fatal(err)
	}
	r888, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"gc1024x120", gc}, {"r888", r888}} {
		for _, kind := range []infer.KernelKind{infer.KernelAuto, infer.KernelCSC} {
			b.Run(c.name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := infer.FromConfigKernel(c.cfg, kind); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E11: brain-scale streaming generation ---

func BenchmarkBrainStream(b *testing.B) {
	stats, err := core.BrainConfig(1e-5, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	count := int64(0)
	for i := 0; i < b.N; i++ {
		count = 0
		err := core.StreamEdges(stats.Config, func(layer int, u, v int64) bool {
			count++
			return count < 1_000_000
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// --- E12: conjecture harness (tiny budget; no real-budget run in-tree) ---

func BenchmarkConjectureFit(b *testing.B) {
	cfg := approx.RunConfig{
		Widths:      []int{8, 16},
		Hidden:      2,
		Epochs:      20,
		LR:          0.02,
		Samples:     32,
		Grid:        64,
		Seed:        1,
		BatchSize:   16,
		MaxParallel: 1,
	}
	target := approx.StandardTargets()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Run(target, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// Ablation 1: parallel vs row-serial SpGEMM. The parallel path is exercised
// through Pattern.Mul's internal row-block decomposition; the serial
// reference is a single-block call (grain forced above row count).
func BenchmarkAblation_SpGEMM(b *testing.B) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(32, 32)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w1, w2 := g.Sub(0), g.Sub(1)
	b.Run("pattern-boolean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w1.Mul(w2); err != nil {
				b.Fatal(err)
			}
		}
	})
	m1 := sparse.MatrixFromPattern(w1, 0.5)
	m2 := sparse.MatrixFromPattern(w2, 0.5)
	b.Run("numeric-spgemm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m1.Mul(m2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 2: CSR×dense vs dense×dense at the RadiX-Net density (1/32 at
// width 1024) — where sparse wins.
func BenchmarkAblation_DenseVsSparse(b *testing.B) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(32, 32)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w := sparse.MatrixFromPattern(g.Sub(0), 0.5)
	batch, err := dataset.SparseBatch(16, 1024, 1024, 1) // fully dense rows
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.DenseMul(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	dw := w.ToDense()
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := batch.MatMul(dw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 3: exact path-count strategies (dense product vs per-source
// streaming) — covered head-to-head by the Theorem 1 benchmarks above; this
// adds the scaling dimension.
func BenchmarkAblation_PathCountScaling(b *testing.B) {
	for _, np := range []int{16, 36, 64} {
		sys, err := radix.Factorize(np)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := core.NewConfig([]radix.System{sys, sys}, nil)
		if err != nil {
			b.Fatal(err)
		}
		g, err := core.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dense/N=%d", np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = g.PathCounts()
			}
		})
		b.Run(fmt.Sprintf("streaming/N=%d", np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := g.SymmetricStreaming(); !ok {
					b.Fatal("not symmetric")
				}
			}
		})
	}
}

// Ablation 4: eq. (5) shape insensitivity — the closed form makes this a
// pure arithmetic sweep; benchmarked to document that the check is free
// compared with building.
func BenchmarkAblation_Eq5ShapeSweep(b *testing.B) {
	sys := radix.MustNew(8, 8)
	shapes := [][]int{nil, {1, 2, 1}, {4, 4, 4}, {1, 16, 1}, {2, 8, 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, shape := range shapes {
			cfg, err := core.NewConfig([]radix.System{sys}, shape)
			if err != nil {
				b.Fatal(err)
			}
			if d := core.Density(cfg); d != 0.125 {
				b.Fatalf("density %g", d)
			}
		}
	}
}

// Extension: configuration search (the examples/topology_search workflow).
func BenchmarkSearch(b *testing.B) {
	spec := core.SearchSpec{Width: 256, Density: 1.0 / 16, EdgeLayers: 8, Tolerance: 0.3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cands, err := core.Search(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// Extension: layered-graph isomorphism detection on Fig. 1-scale nets.
func BenchmarkIsomorphism(b *testing.B) {
	g := core.MixedRadix(radix.MustNew(2, 2, 2))
	perms := make([][]int, g.NumLayers())
	rng := rand.New(rand.NewSource(5))
	for i := range perms {
		perms[i] = rng.Perm(g.LayerSize(i))
	}
	h, err := g.Relabel(perms)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := topology.IsomorphicByLayerPermutation(g, h, 0); !ok {
			b.Fatal("not isomorphic")
		}
	}
}

// Kronecker product scaling, the core primitive of eq. (3).
func BenchmarkKroneckerProduct(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		w := sparse.SumOfShifts(n, []int{0, 1, 2, 3})
		ones := sparse.Ones(4, 4)
		b.Run(fmt.Sprintf("ones4x4xW%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ones.Kron(w)
			}
		})
	}
}
