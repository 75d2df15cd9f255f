package radixnet_test

import (
	"bytes"
	"math"
	"math/big"
	"testing"

	radixnet "github.com/radix-net/radixnet"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/graphio"
)

// TestPublicQuickstart runs the doc-comment quick start through the facade.
func TestPublicQuickstart(t *testing.T) {
	sys := radixnet.MustSystem(2, 2, 2)
	cfg, err := radixnet.NewConfig([]radixnet.System{sys}, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, err := radixnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := net.Symmetric()
	if !ok || m.Int64() != 1 {
		t.Fatalf("Fig. 1 net: symmetric=%v m=%v", ok, m)
	}
}

// TestEndToEndPipeline is the integration test across the whole stack:
// configure → validate → build → verify Theorem 1 → serialize → reload →
// compare → stream → recount.
func TestEndToEndPipeline(t *testing.T) {
	systems := []radixnet.System{
		radixnet.MustSystem(3, 3, 4),
		radixnet.MustSystem(2, 2, 9),
		radixnet.MustSystem(6, 2),
	}
	shape := []int{1, 2, 2, 2, 2, 2, 2, 2, 1}
	cfg, err := radixnet.NewConfig(systems, shape)
	if err != nil {
		t.Fatal(err)
	}

	// JSON round trip of the configuration.
	data, err := graphio.MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := graphio.UnmarshalConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.String() != cfg.String() {
		t.Fatalf("config JSON round trip: %s vs %s", cfg2, cfg)
	}

	// Build and verify the graph properties.
	net, err := radixnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := net.Symmetric()
	if !ok {
		t.Fatal("built net not symmetric")
	}
	if m.Cmp(radixnet.TheoreticalPaths(cfg)) != 0 {
		t.Fatalf("m = %v, theory %v", m, radixnet.TheoreticalPaths(cfg))
	}
	if !net.PathConnected() {
		t.Fatal("built net not path-connected")
	}
	if got, want := net.Density(), radixnet.Density(cfg); math.Abs(got-want) > 1e-12 {
		t.Fatalf("density %g vs eq.(4) %g", got, want)
	}

	// TSV round trip of the topology.
	var buf bytes.Buffer
	if err := radixnet.WriteTSV(&buf, net); err != nil {
		t.Fatal(err)
	}
	back, err := graphio.ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Equal(back) {
		t.Fatal("TSV round trip changed the topology")
	}

	// Streamed edges must agree with the built edge count.
	streamed := 0
	err = core.StreamEdges(cfg, func(layer int, u, v int64) bool {
		streamed++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != net.NumEdges() {
		t.Fatalf("streamed %d, built %d", streamed, net.NumEdges())
	}
}

// TestFacadeSystemHelpers: MustSystem validates its radices and the system
// it returns spans the product of its digits.
func TestFacadeSystemHelpers(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("radix 1 accepted")
			}
		}()
		radixnet.MustSystem(1)
	}()
	if s := radixnet.MustSystem(3, 3, 4); s.Product() != 36 {
		t.Fatalf("product = %d", s.Product())
	}
}

// buildNet builds the extended mixed-radix topology of the systems: the
// RadiX-Net of NewConfig's all-ones shape.
func buildNet(t *testing.T, systems ...radixnet.System) *radixnet.Topology {
	t.Helper()
	cfg, err := radixnet.NewConfig(systems, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := radixnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFacadeEMRAndMixedRadix builds the mixed-radix topology of one system
// and the extended mixed-radix topology of three copies.
func TestFacadeEMRAndMixedRadix(t *testing.T) {
	s := radixnet.MustSystem(2, 3)
	mr := buildNet(t, s)
	if mr.NumLayers() != 3 || mr.LayerSize(0) != 6 {
		t.Fatalf("mixed radix shape: %v", mr.LayerSizes())
	}
	emr := buildNet(t, s, s, s)
	m, ok := emr.Symmetric()
	if !ok {
		t.Fatal("EMR not symmetric")
	}
	if m.Cmp(big.NewInt(36)) != 0 { // (N′)^{M−1} = 6²
		t.Fatalf("m = %v, want 36", m)
	}
}

func TestFacadeDensityHelpers(t *testing.T) {
	if d := radixnet.DensityApproxMuD(4, 3); d != 0.0625 {
		t.Fatalf("eq(6) = %g", d)
	}
	cells := radixnet.DensityMap(2, 3, 1, 2)
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
}

// TestFacadePresets: the preset configurations the cmd/ tools build from
// are facade Configs, priced by the facade's closed-form density.
func TestFacadePresets(t *testing.T) {
	gc, err := core.GraphChallengeConfig(1024, 6)
	if err != nil {
		t.Fatal(err)
	}
	if gc.NPrime() != 1024 {
		t.Fatalf("N′ = %d", gc.NPrime())
	}
	if d := radixnet.Density(gc); d != 32.0/1024 {
		t.Fatalf("challenge density = %g, want 32/1024", d)
	}
	uc, err := core.UniformConfig(4, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if uc.TotalRadices() != 6 {
		t.Fatalf("radices = %d", uc.TotalRadices())
	}
	bs, err := core.BrainConfig(1e-7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Synapses.Sign() <= 0 {
		t.Fatal("brain synapse count not positive")
	}
}

// TestDownstreamUsageScenario mirrors how an adopter wires a RadiX-Net into
// their own model code: pick a density target, search the preset space,
// build, and consume the adjacency submatrices.
func TestDownstreamUsageScenario(t *testing.T) {
	// Want ~1/8 density at width 64 → µ = 8, d = 2 → systems (8,8).
	sys := radixnet.MustSystem(8, 8)
	cfg, err := radixnet.NewConfig([]radixnet.System{sys, sys}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := radixnet.Density(cfg); d != 0.125 {
		t.Fatalf("density = %g, want 0.125", d)
	}
	net, err := radixnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.NumSubs(); i++ {
		sub := net.Sub(i)
		if sub.Rows() != 64 || sub.Cols() != 64 {
			t.Fatalf("layer %d shape %dx%d", i, sub.Rows(), sub.Cols())
		}
		for r := 0; r < sub.Rows(); r++ {
			if sub.RowDegree(r) != 8 {
				t.Fatalf("layer %d row %d degree %d, want 8", i, r, sub.RowDegree(r))
			}
		}
	}
}
