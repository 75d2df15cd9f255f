package radixnet_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	radixnet "github.com/radix-net/radixnet"
	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

func TestFacadeSearchWorkflow(t *testing.T) {
	cands, err := radixnet.Search(radixnet.SearchSpec{
		Width:      64,
		Density:    0.125,
		EdgeLayers: 4,
		Tolerance:  0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for (8,8)-achievable target")
	}
	best := cands[0]
	if best.Density != 0.125 {
		t.Fatalf("best density = %g", best.Density)
	}
	net, err := radixnet.Build(best.Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Symmetric(); !ok {
		t.Fatal("search candidate not symmetric")
	}
}

func TestFacadeInferEngine(t *testing.T) {
	cfg, err := radixnet.NewConfig([]radixnet.System{radixnet.MustSystem(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := radixnet.InferFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if engine.NumLayers() != 2 {
		t.Fatalf("layers = %d", engine.NumLayers())
	}
	// Build a batch, run it, read activations.
	in, err := dataset.SparseBatch(4, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 4 || out.Cols() != 16 {
		t.Fatalf("output shape %dx%d", out.Rows(), out.Cols())
	}
}

func TestFacadeOrderedFactorizations(t *testing.T) {
	fs := core.OrderedFactorizations(12, 16)
	// 12 = (12), (2,6), (6,2), (3,4), (4,3), (2,2,3), (2,3,2), (3,2,2).
	if len(fs) != 8 {
		t.Fatalf("factorizations of 12: got %d (%v)", len(fs), fs)
	}
}

func TestFacadeIsomorphism(t *testing.T) {
	a, b := buildNet(t, radixnet.MustSystem(2, 2)), buildNet(t, radixnet.MustSystem(2, 2))
	if _, ok := radixnet.Isomorphic(a, b, 0); !ok {
		t.Fatal("identical topologies not isomorphic")
	}
	c := buildNet(t, radixnet.MustSystem(4))
	if _, ok := radixnet.Isomorphic(a, c, 0); ok {
		t.Fatal("different-depth topologies reported isomorphic")
	}
}

// TestFacadeAnalysisOnChallengeNet exercises the analysis API on a
// realistic network: receptive-field growth for a Graph Challenge block is
// 1 → 32 → 1024 (radix-32 fan-out squared covers the layer).
func TestFacadeAnalysisOnChallengeNet(t *testing.T) {
	cfg, err := core.GraphChallengeConfig(1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := radixnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := net.ReachabilityProfile(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 32, 1024, 1024, 1024}
	for i, w := range want {
		if profile[i] != w {
			t.Fatalf("profile = %v, want %v", profile, want)
		}
	}
	values, _ := net.PathSpectrum()
	if len(values) != 1 {
		t.Fatalf("challenge net spectrum has %d values; must be symmetric", len(values))
	}
}

// TestFacadeServing drives the serving stack from the facade's registry and
// server: model, micro-batched inference (bit-identical to the direct
// engine), the HTTP API, and graceful shutdown.
func TestFacadeServing(t *testing.T) {
	cfg, err := radixnet.NewConfig([]radixnet.System{radixnet.MustSystem(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := radixnet.NewRegistry(radixnet.ServePolicy{MaxBatch: 8, MaxLatency: time.Millisecond})
	m, err := reg.Register("facade", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dataset.SparseBatch(4, m.InputWidth(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := radixnet.InferFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < in.Rows(); r++ {
		resp, err := m.Do(context.Background(), &serve.Request{Rows: [][]float64{in.RowSlice(r)}})
		if err != nil {
			t.Fatal(err)
		}
		out := resp.Outputs[0]
		rowIn, err := sparse.DenseFromSlice(1, in.Cols(), in.RowSlice(r))
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Infer(rowIn)
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range out {
			if v != want.At(0, c) {
				t.Fatalf("row %d col %d: served %v, direct %v", r, c, v, want.At(0, c))
			}
		}
	}

	srv := radixnet.NewServerOpts(reg, "127.0.0.1:0", radixnet.ServerOptions{})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models map[string][]serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models["models"]) != 1 || models["models"][0].Name != "facade" {
		t.Fatalf("models = %+v", models)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(context.Background(), &serve.Request{Rows: [][]float64{in.RowSlice(0)}}); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("post-shutdown Do = %v, want ErrClosed", err)
	}
}

// TestFacadeClusterExports puts the sharding layer in front of a facade
// server: ring placement stability and a router front end over one backend.
func TestFacadeClusterExports(t *testing.T) {
	ring := cluster.NewRing(0).Add("a:1", "b:1", "c:1")
	owners := ring.Owners("some-model", 2)
	if len(owners) != 2 || owners[0] == owners[1] {
		t.Fatalf("Owners = %v", owners)
	}

	cfg, err := radixnet.NewConfig([]radixnet.System{radixnet.MustSystem(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := radixnet.NewRegistry(radixnet.ServePolicy{MaxLatency: time.Millisecond})
	if _, err := reg.Register("m", cfg, 1); err != nil {
		t.Fatal(err)
	}
	srv := radixnet.NewServerOpts(reg, "127.0.0.1:0", radixnet.ServerOptions{})
	backend, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Addr:     "127.0.0.1:0",
		Backends: []string{backend},
		Set:      cluster.SetConfig{ProbeInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"m","inputs":[[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed infer status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Radix-Backend"); got != backend {
		t.Fatalf("answered by %q, want %q", got, backend)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeKernelSelection: InferFromConfig builds a KernelAuto engine, which
// numbers a radix config's closing layer into a quotient, and its engine
// matches the un-numbered CSC engine — the bit-identity oracle — bit for bit.
func TestFacadeKernelSelection(t *testing.T) {
	cfg, err := radixnet.NewConfig([]radixnet.System{radixnet.MustSystem(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := infer.FromConfigKernel(cfg, infer.KernelCSC)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := radixnet.InferFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Kernel() != infer.KernelAuto || fast.QuotientLayers() != 1 {
		t.Fatalf("InferFromConfig: kernel %v, %d quotient layers, want auto and 1", fast.Kernel(), fast.QuotientLayers())
	}
	in, err := dataset.SparseBatch(4, 16, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := oracle.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := fast.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	w, g := wantOut.Data(), gotOut.Data()
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("facade engine diverged from the CSC oracle at %d: %x want %x", i, g[i], w[i])
		}
	}
}
