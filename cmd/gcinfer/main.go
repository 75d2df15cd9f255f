// Command gcinfer runs the Graph Challenge–style sparse DNN inference
// benchmark (experiment E10): it generates a RadiX-Net of the requested
// shape, assigns challenge-convention weights, pushes a batch of sparse
// inputs through it, and reports throughput as edges traversed per second
// (batch × total nnz / wall time), the challenge's headline metric.
//
// -kernel selects the kernel: "csc" pins the generic kernels, "radix"
// demands the structure-aware path (fails on configs that don't compile to
// stride plans), "auto" (default) resolves to radix whenever the plans
// verify.
//
// Usage:
//
//	gcinfer [-width 1024] [-layers 120] [-batch 64] [-nnz 100] [-reps 3]
//	gcinfer -radix 8,8,8,8 -batch 64 -kernel radix
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// parseKernel maps the -kernel flag to the family the engine is built with.
// This flag is the one place a kernel is chosen by name: it exists so the CSC
// oracle and the production path can be run on the same network and compared.
func parseKernel(s string) (infer.KernelKind, error) {
	for _, k := range []infer.KernelKind{infer.KernelAuto, infer.KernelCSC, infer.KernelRadix} {
		if s == k.String() {
			return k, nil
		}
	}
	return infer.KernelAuto, fmt.Errorf("unknown kernel %q (want csc, radix or auto)", s)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gcinfer: ")
	var (
		width     = flag.Int("width", 1024, "neurons per layer (multiple of 1024); ignored with -radix")
		layers    = flag.Int("layers", 120, "number of weight layers (even); ignored with -radix")
		radixSpec = flag.String("radix", "", "build from one mixed-radix system, e.g. 8,8,8,8 (overrides -width/-layers)")
		batch     = flag.Int("batch", 64, "input rows per batch")
		nnz       = flag.Int("nnz", 0, "nonzeros per input row (0 = width/10)")
		reps      = flag.Int("reps", 3, "timed repetitions (best-of)")
		seed      = flag.Int64("seed", 1, "input seed")
		kernel    = flag.String("kernel", "auto", "inference kernel: csc, radix, or auto")
	)
	flag.Parse()

	kind, err := parseKernel(*kernel)
	if err != nil {
		log.Fatal(err)
	}

	var cfg core.Config
	if *radixSpec != "" {
		sys, perr := radix.Parse(*radixSpec)
		if perr != nil {
			log.Fatal(perr)
		}
		cfg, err = core.NewConfig([]radix.System{sys}, nil)
	} else {
		cfg, err = core.GraphChallengeConfig(*width, *layers)
	}
	if err != nil {
		log.Fatal(err)
	}
	netWidth := cfg.LayerWidths()[0]
	numLayers := len(cfg.LayerWidths()) - 1
	fmt.Printf("network: %d layers × %d neurons, %s edges, density %.4g\n",
		numLayers, netWidth, cfg.NumEdges(), core.Density(cfg))

	buildStart := time.Now()
	engine, err := infer.FromConfigKernel(cfg, kind)
	if err != nil {
		log.Fatal(err)
	}
	fp := engine.Footprint()
	fmt.Printf("generation: %v (%d stored weights, %s kernel, %d of %d layers on quotients; %d distinct, %d structure bytes, %d value bytes held)\n",
		time.Since(buildStart).Round(time.Millisecond), engine.TotalNNZ(), engine.Kernel(), engine.QuotientLayers(), numLayers,
		fp.DistinctLayers, fp.StructureBytes, fp.ValueBytes)

	inNNZ := *nnz
	if inNNZ <= 0 {
		inNNZ = netWidth / 10
		if inNNZ < 1 {
			inNNZ = 1
		}
	}
	in, err := dataset.SparseBatch(*batch, netWidth, inNNZ, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// Warm-up pass (page in the weight arrays, size the ping-pong buffers)
	// then timed repetitions.
	if _, err := engine.Infer(in); err != nil {
		log.Fatal(err)
	}
	best := timeInfer(engine.Infer, in, *reps)
	edges := float64(*batch) * float64(engine.TotalNNZ())
	fmt.Printf("inference: best of %d reps = %v\n", *reps, best.Round(time.Microsecond))
	fmt.Printf("throughput: %.3g edges/s (batch %d × %d edges)\n",
		edges/best.Seconds(), *batch, engine.TotalNNZ())

	active, _, err := engine.InferCategories(in)
	if err != nil {
		log.Fatal(err)
	}
	alive := 0
	for _, a := range active {
		if a {
			alive++
		}
	}
	fmt.Printf("categories: %d/%d rows with surviving activations\n", alive, *batch)
}

// timeInfer returns the best wall time of reps calls to fn.
func timeInfer(fn func(*sparse.Dense) (*sparse.Dense, error), in *sparse.Dense, reps int) time.Duration {
	var best time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := fn(in); err != nil {
			log.Fatal(err)
		}
		if elapsed := time.Since(start); best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best
}
