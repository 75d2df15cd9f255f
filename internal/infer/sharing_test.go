package infer

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/sparse"
)

// gcEdges is the edge count of one Graph Challenge 1024 layer: 1024 × 32.
const gcEdges = 1024 * 32

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the first may only finish a cycle already under way
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestConfigEngineFootprint gates the storage claim on the real heap: Graph
// Challenge 1024×120 is (32,32) sixty times, so a config-built engine holds two
// patterns, their two transpositions and one run of weights — 1.3 MB where
// storing each of the 120 layers held 121.7 MB — and clones add nothing.
func TestConfigEngineFootprint(t *testing.T) {
	cfg, err := core.GraphChallengeConfig(1024, 120)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 4 << 20
	for _, kind := range []KernelKind{KernelAuto, KernelCSC} {
		before := liveHeap()
		e, err := FromConfigKernel(cfg, kind)
		if err != nil {
			t.Fatal(err)
		}
		held := []*Engine{e, e.Clone(), e.Clone()}
		grew := liveHeap() - before
		fp := e.Footprint()
		t.Logf("%v: live heap +%d B; footprint %+v", kind, grew, fp)
		if grew > limit {
			t.Errorf("%v: engine and two clones hold %d B of live heap, want ≤ %d", kind, grew, limit)
		}
		// CSR: (1025 row pointers + 32768 columns) ints; CSC: 1025 column
		// pointers, 32768 rows and the 32768-entry CSR→CSC permutation, int32.
		wantStructure := int64(2 * ((1025+gcEdges)*8 + (1025+2*gcEdges)*4))
		if fp.DistinctLayers != 2 || fp.StructureBytes != wantStructure || fp.ValueBytes != gcEdges*8 {
			t.Errorf("%v: footprint %+v, want 2 distinct layers, %d structure bytes, %d value bytes",
				kind, fp, wantStructure, gcEdges*8)
		}
		if fp.StructureBytes+fp.ValueBytes > grew {
			t.Errorf("%v: footprint counts %d B, the heap only grew by %d", kind, fp.StructureBytes+fp.ValueBytes, grew)
		}
		runtime.KeepAlive(held)
	}
}

// perturbLayer writes seeded noise to layer k alone, the way a caller outside
// the package would: through Values, then RefreshWeights.
func perturbLayer(e *Engine, k int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	vals := e.layers[k].Values()
	for i := range vals {
		vals[i] += (rng.Float64()*2 - 1) * 0.05
	}
	e.RefreshWeights()
}

// TestPerturbOneLayerLeavesOthers: writing one layer of a stack that reads one
// constant run moves that layer, and only that layer, onto storage of its own.
// Every other layer keeps its values and the run (the footprint grows by
// exactly one layer's copies); the written layer runs per column, and so does
// the opening layer behind it when it closes a system; and the half-shared
// stack computes the same bits on every path.
func TestPerturbOneLayerLeavesOthers(t *testing.T) {
	const layers = 6
	batch, err := dataset.SparseBatch(13, 1024, 300, 5) // an octet, a quad, a single
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, quotients int }{{0, 5}, {3, 3}, {layers - 1, 4}} {
		k := c.k
		rad, csc := gcEngines(t, layers)
		clone := rad.Clone()
		w := 4.0 / 32
		perturbLayer(rad, k, 7)
		perturbLayer(csc, k, 7)

		for _, e := range []*Engine{rad, csc} {
			for l, m := range e.layers {
				if l == k {
					continue
				}
				for r := 0; r < m.Rows(); r++ {
					m.RowEntries(r, func(c int, v float64) {
						if v != w {
							t.Fatalf("k=%d %v: layer %d entry (%d,%d) = %v, want %v", k, e.Kernel(), l, r, c, v, w)
						}
					})
				}
			}
			// The written layer now stores CSR and CSC order; the rest still
			// read the one run.
			if fp := e.Footprint(); fp.DistinctLayers != 3 || fp.ValueBytes != 3*gcEdges*8 {
				t.Errorf("k=%d %v: footprint %+v, want 3 distinct layers and %d value bytes",
					k, e.Kernel(), fp, 3*gcEdges*8)
			}
		}
		if got := rad.QuotientLayers(); got != c.quotients {
			t.Errorf("k=%d: %d quotient layers, want %d", k, got, c.quotients)
		}

		want, err := csc.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := rad.ReferenceInfer(batch)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "radix reference", ref, want)
		for name, e := range map[string]*Engine{"csc": csc, "radix": rad, "radix clone": clone} {
			sameBits(t, name, mustInfer(t, e, batch), want)
		}
	}
}

// TestPerturbThroughCloneVisibleToAll is the Clone contract across the
// copy-on-write (run it under -race): a mutation made through one clone moves
// the layers every clone holds, so all of them — serving concurrently before
// and after, never during — compute the new weights.
func TestPerturbThroughCloneVisibleToAll(t *testing.T) {
	rad, _ := gcEngines(t, 4)
	engines := []*Engine{rad, rad.Clone(), rad.Clone()}
	batch, err := dataset.SparseBatch(16, 1024, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	all := func() []*sparse.Dense {
		outs := make([]*sparse.Dense, len(engines))
		var wg sync.WaitGroup
		for i, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, err := e.Infer(batch)
				if err != nil {
					t.Error(err)
					return
				}
				outs[i] = out.Clone()
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return outs
	}
	before := all()
	engines[1].PerturbWeights(0.05, 3)
	want, err := engines[2].ReferenceInfer(batch)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := want.MaxAbsDiff(before[0]); d == 0 {
		t.Fatal("perturbing the weights left the output unchanged: the batch exercises nothing")
	}
	for i, out := range all() {
		sameBits(t, []string{"parent", "perturbed clone", "other clone"}[i], out, want)
	}
	if fp := rad.Footprint(); fp.DistinctLayers != 4 || fp.ValueBytes != 4*2*gcEdges*8 {
		t.Errorf("footprint after perturbing every layer: %+v, want 4 distinct layers, %d value bytes", fp, 4*2*gcEdges*8)
	}
}
