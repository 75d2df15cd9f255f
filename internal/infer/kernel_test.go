package infer

import (
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

// TestRadixKernelEngineBitIdentical is the structure-aware kernel's property
// test at engine scope: for random radix configs and batch sizes (including
// non-multiples of the quad width, so gather-quad, gather-remainder and
// scatter paths all engage), an engine built on the radix kernel is
// bit-identical to its twin built on the fused CSC kernel, and both match
// ReferenceInfer within float tolerance.
func TestRadixKernelEngineBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		cfg := randomRadixConfig(t, rng)
		e, err := FromConfigKernel(cfg, KernelRadix)
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, cfg, err)
		}
		oracle, err := FromConfigKernel(cfg, KernelCSC)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kernel() != KernelRadix || oracle.Kernel() != KernelCSC {
			t.Fatalf("trial %d: kernels %v, %v", trial, e.Kernel(), oracle.Kernel())
		}
		e.PerturbWeights(0.15, int64(trial))
		oracle.PerturbWeights(0.15, int64(trial))
		width := e.layers[0].Rows()
		batchRows := 1 + rng.Intn(9) // covers 1..9: quads plus remainders
		nnz := 1 + rng.Intn(width)
		batch, err := dataset.SparseBatch(batchRows, width, nnz, int64(trial*31+1))
		if err != nil {
			t.Fatal(err)
		}

		radixOut, err := e.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		cscOut, err := oracle.Infer(batch)
		if err != nil {
			t.Fatal(err)
		}
		rd, cd := radixOut.Data(), cscOut.Data()
		for i := range rd {
			if rd[i] != cd[i] {
				t.Fatalf("trial %d (%v): radix and CSC outputs differ at %d: %x vs %x",
					trial, cfg, i, rd[i], cd[i])
			}
		}

		ref, err := e.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		ud := ref.Data()
		for i := range rd {
			d := rd[i] - ud[i]
			if d < -1e-9 || d > 1e-9 {
				t.Fatalf("trial %d: radix vs reference differ at %d: %v vs %v", trial, i, rd[i], ud[i])
			}
		}
	}
}

// TestFromConfigAutoSelectsRadix: config-built engines prove their own
// structure, so plain FromConfig runs the butterfly kernel, and asking for
// the CSC oracle compiles no plans at all.
func TestFromConfigAutoSelectsRadix(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != KernelRadix {
		t.Fatalf("FromConfig kernel = %v, want radix", e.Kernel())
	}
	eCSC, err := FromConfigKernel(cfg, KernelCSC)
	if err != nil {
		t.Fatal(err)
	}
	if eCSC.Kernel() != KernelCSC || eCSC.radix != nil {
		t.Fatalf("KernelCSC engine compiled plans anyway (kernel %v)", eCSC.Kernel())
	}
	if _, err := FromConfigKernel(cfg, KernelKind(99)); err == nil {
		t.Fatal("invalid kernel kind accepted")
	}
}

// TestTopologyEngineRunsCSC: engines built from arbitrary matrices have no
// proof of structure, so they are CSC engines — and stay so through Clone.
func TestTopologyEngineRunsCSC(t *testing.T) {
	e := smallEngine(t) // FromTopology: no config, no plans
	for _, eng := range []*Engine{e, e.Clone()} {
		if eng.Kernel() != KernelCSC || eng.radix != nil {
			t.Fatalf("topology-built engine: kernel %v, plans %v", eng.Kernel(), eng.radix != nil)
		}
	}
}

// TestCompileRadixPlansRejectsMismatchedConfig: a valid config that does not
// describe the engine's matrices must fail verification and leave the engine
// on CSC, still serving.
func TestCompileRadixPlansRejectsMismatchedConfig(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewConfig([]radix.System{radix.MustNew(2, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := FromConfigKernel(cfg, KernelCSC)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.compileRadixPlans(other); err == nil {
		t.Fatal("mismatched config accepted")
	}
	if fresh.radix != nil || fresh.Kernel() != KernelCSC {
		t.Fatal("failed compilation left plans attached")
	}
	batch, err := dataset.SparseBatch(3, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Infer(batch); err != nil {
		t.Fatalf("engine unusable after failed compilation: %v", err)
	}
}

// TestRadixCloneSharesPlansConcurrentInfer: clones share compiled stride
// plans; concurrent Infer across a clone pool must be race-free (run under
// -race in CI) and every clone's output bit-identical to the parent's.
func TestRadixCloneSharesPlansConcurrentInfer(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := FromConfigKernel(cfg, KernelRadix)
	if err != nil {
		t.Fatal(err)
	}
	parent.PerturbWeights(0.1, 7)
	width := parent.layers[0].Rows()
	batch, err := dataset.SparseBatch(9, width, width/3, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parent.Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantData := append([]float64(nil), want.Data()...)

	const workers = 8
	outs := make([]*sparse.Dense, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := parent.Clone()
		if c.Kernel() != KernelRadix {
			t.Fatalf("clone kernel %v, want radix", c.Kernel())
		}
		wg.Add(1)
		go func(w int, c *Engine) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				out, err := c.Infer(batch)
				if err != nil {
					t.Error(err)
					return
				}
				outs[w] = out.Clone()
			}
		}(w, c)
	}
	wg.Wait()
	for w, out := range outs {
		if out == nil {
			continue // worker errored; already reported
		}
		od := out.Data()
		for i := range wantData {
			if od[i] != wantData[i] {
				t.Fatalf("clone %d output differs at %d: %x vs %x", w, i, od[i], wantData[i])
			}
		}
	}
}
