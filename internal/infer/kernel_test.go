package infer

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// randomRadixConfig draws a config with 1–2 mixed-radix systems (equal
// products) and an optional dense shape, covering EMR and Kronecker-lifted
// layers.
func randomRadixConfig(t *testing.T, rng *rand.Rand) core.Config {
	t.Helper()
	pick := [][]int{{2, 2, 2}, {2, 4}, {4, 2}, {8}, {3, 3}, {2, 2}, {4, 4}}
	sysA := pick[rng.Intn(len(pick))]
	systems := []radix.System{radix.MustNew(sysA...)}
	if rng.Intn(2) == 0 {
		prod := 1
		for _, r := range sysA {
			prod *= r
		}
		// Second system with the same product so the config validates.
		for _, cand := range pick {
			p := 1
			for _, r := range cand {
				p *= r
			}
			if p == prod {
				systems = append(systems, radix.MustNew(cand...))
				break
			}
		}
	}
	var shape []int
	if rng.Intn(2) == 0 {
		n := 0
		for _, s := range systems {
			n += s.Len()
		}
		shape = make([]int, n+1)
		for i := range shape {
			shape[i] = 1 + rng.Intn(3)
		}
	}
	cfg, err := core.NewConfig(systems, shape)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// stridePlans compiles a stride plan for every layer of e, an engine built
// from cfg, from the place value, radix and shape of the digit that generated
// the layer: CompileStridePlan verifies the layer edge for edge against the
// paper's mixed-radix rule, so this is the check that core.Build follows it.
func stridePlans(t testing.TB, cfg core.Config, e *Engine) []*sparse.StridePlan {
	t.Helper()
	if got := cfg.TotalRadices(); got != len(e.layers) {
		t.Fatalf("%v has %d radix layers, engine has %d", cfg, got, len(e.layers))
	}
	np, shape := cfg.NPrime(), cfg.ShapeOrOnes()
	var plans []*sparse.StridePlan
	for _, sys := range cfg.Systems {
		for i := 0; i < sys.Len(); i++ {
			l := len(plans)
			plan, err := sparse.CompileStridePlan(e.layers[l].Pattern(), np, sys.PlaceValue(i), sys.Radix(i), shape[l], shape[l+1])
			if err != nil {
				t.Fatalf("%v layer %d: %v", cfg, l, err)
			}
			plans = append(plans, plan)
		}
	}
	return plans
}

// TestConfigLayersFollowEdgeRule: every layer core.Build makes follows the
// paper's mixed-radix edge rule, on every config FuzzInferPathsAgree's seeds
// decode, Graph Challenge 1024×120, a lifted stack and (8,8,8)²; and the
// check is not vacuous: (4,4)'s layers do not verify as (2,8)'s.
func TestConfigLayersFollowEdgeRule(t *testing.T) {
	var cfgs []core.Config
	for _, s := range fuzzSeeds {
		cfg, err := fuzzConfig(s.spec)
		if err != nil {
			t.Fatalf("spec %v: %v", s.spec, err)
		}
		cfgs = append(cfgs, cfg)
	}
	gc, err := core.GraphChallengeConfig(1024, 120)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := core.NewConfig([]radix.System{radix.MustNew(8, 8), radix.MustNew(8, 8)}, []int{2, 1, 3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	r888sq, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8), radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range append(cfgs, gc, lifted, r888sq) {
		e, err := FromConfigKernel(cfg, KernelCSC)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		stridePlans(t, cfg, e)
	}

	e := configEngine(t, KernelCSC, nil, []int{4, 4})
	other := radix.MustNew(2, 8)
	for l := range e.layers {
		if _, err := sparse.CompileStridePlan(e.layers[l].Pattern(), 16, other.PlaceValue(l), other.Radix(l), 1, 1); !errors.Is(err, sparse.ErrNotRadixStructured) {
			t.Fatalf("(4,4) layer %d compiled as (2,8)'s: %v", l, err)
		}
	}
}

// TestAutoEngineBitIdentical: for random radix configs and batch sizes
// (including non-multiples of the quad width, so gather-quad,
// gather-remainder and scatter paths all engage), the auto engine numbers its
// values — into quotients on every stack of more than one layer while the
// weights stand, into none once they are perturbed — and is bit-identical to
// its un-numbered CSC twin, which never numbers; both match ReferenceInfer
// within float tolerance.
func TestAutoEngineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		cfg := randomRadixConfig(t, rng)
		e, err := FromConfigKernel(cfg, KernelAuto)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, cfg, err)
		}
		oracle, err := FromConfigKernel(cfg, KernelCSC)
		if err != nil {
			t.Fatal(err)
		}
		perturb := trial%2 == 1
		if perturb {
			e.PerturbWeights(0.15, int64(trial))
			oracle.PerturbWeights(0.15, int64(trial))
		}
		if q := e.QuotientLayers(); oracle.QuotientLayers() != 0 || perturb && q != 0 || !perturb && len(e.layers) > 1 && q == 0 {
			t.Fatalf("trial %d (%v, perturbed %v): %d quotient layers, %d on the oracle", trial, cfg, perturb, q, oracle.QuotientLayers())
		}
		width := e.layers[0].Rows()
		batchRows := 1 + rng.Intn(9) // covers 1..9: quads plus remainders
		nnz := 1 + rng.Intn(width)
		batch, err := dataset.SparseBatch(batchRows, width, nnz, int64(trial*31+1))
		if err != nil {
			t.Fatal(err)
		}

		autoOut, err := e.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		cscOut, err := oracle.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		ad, cd := autoOut.Data(), cscOut.Data()
		for i := range ad {
			if ad[i] != cd[i] {
				t.Fatalf("trial %d (%v): auto and CSC outputs differ at %d: %x vs %x",
					trial, cfg, i, ad[i], cd[i])
			}
		}

		ref, err := e.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		ud := ref.Data()
		for i := range ad {
			d := ad[i] - ud[i]
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("trial %d: auto vs reference differ at %d: %v vs %v", trial, i, ad[i], ud[i])
			}
		}
	}
}

// TestFromConfigAutoNumbers: plain FromConfig builds a KernelAuto engine,
// which numbers (4,4)'s closing layer into a quotient; the CSC oracle never
// numbers; and an unknown kind is refused.
func TestFromConfigAutoNumbers(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != KernelAuto || e.QuotientLayers() != 1 {
		t.Fatalf("FromConfig: kernel %v, %d quotient layers, want auto and 1", e.Kernel(), e.QuotientLayers())
	}
	eCSC, err := FromConfigKernel(cfg, KernelCSC)
	if err != nil {
		t.Fatal(err)
	}
	if eCSC.Kernel() != KernelCSC || eCSC.QuotientLayers() != 0 {
		t.Fatalf("KernelCSC engine: kernel %v, %d quotient layers", eCSC.Kernel(), eCSC.QuotientLayers())
	}
	if _, err := FromConfigKernel(cfg, KernelKind(99)); err == nil {
		t.Fatal("invalid kernel kind accepted")
	}
}

// TestTopologyEngineRunsCSC: engines built from arbitrary matrices are CSC
// engines — they never number, not through Clone and not on RefreshWeights.
func TestTopologyEngineRunsCSC(t *testing.T) {
	e := smallEngine(t) // FromTopology: one weight on every edge, never numbered
	e.RefreshWeights()
	for _, eng := range []*Engine{e, e.Clone()} {
		if eng.Kernel() != KernelCSC || eng.QuotientLayers() != 0 {
			t.Fatalf("topology-built engine: kernel %v, %d quotient layers", eng.Kernel(), eng.QuotientLayers())
		}
	}
}

// TestAutoCloneSharesNumberingConcurrentInfer: clones share the steps the
// numbering bound; concurrent Infer across a clone pool must be race-free
// (run under -race in CI) and every clone's output bit-identical to the CSC
// oracle's — on the weights as built, which run quotients, and again after
// one clone's RefreshWeights renumbers them for all.
func TestAutoCloneSharesNumberingConcurrentInfer(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := FromConfigKernel(cfg, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := FromConfigKernel(cfg, KernelCSC)
	if err != nil {
		t.Fatal(err)
	}
	width := parent.layers[0].Rows()
	batch, err := dataset.SparseBatch(9, width, width/3, 5)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	clones := make([]*Engine, workers)
	for w := range clones {
		clones[w] = parent.Clone()
	}
	for _, written := range []bool{false, true} {
		if written {
			clones[3].PerturbWeights(0.1, 7)
			oracle.PerturbWeights(0.1, 7)
		}
		if q := parent.QuotientLayers(); (q > 0) == written {
			t.Fatalf("written %v: %d quotient layers", written, q)
		}
		want, err := oracle.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([]*sparse.Dense, workers)
		var wg sync.WaitGroup
		for w, c := range clones {
			if c.QuotientLayers() != parent.QuotientLayers() {
				t.Fatalf("written %v: clone %d runs %d quotients, parent %d", written, w, c.QuotientLayers(), parent.QuotientLayers())
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					out, err := c.Infer(batch)
					if err != nil {
						t.Error(err)
						return
					}
					outs[w] = out.Clone()
				}
			}()
		}
		wg.Wait()
		for w, out := range outs {
			if out == nil {
				continue // worker errored; already reported
			}
			od, wd := out.Data(), want.Data()
			for i := range wd {
				if od[i] != wd[i] {
					t.Fatalf("written %v: clone %d output differs at %d: %x vs %x", written, w, i, od[i], wd[i])
				}
			}
		}
	}
}
