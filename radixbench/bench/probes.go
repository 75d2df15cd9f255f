package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/parallel"
	"github.com/radix-net/radixnet/internal/sparse"
	"github.com/radix-net/radixnet/internal/topology"
)

// medianNs times f reps times and returns the median, in nanoseconds.
func medianNs(reps int, f func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t0 := time.Now()
		f()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return Median(ns)
}

// perCallNs is medianNs for calls too short to time alone: each repetition
// times inner back-to-back calls and divides.
func perCallNs(reps, inner int, f func(i int)) float64 {
	return medianNs(reps, func() {
		for i := 0; i < inner; i++ {
			f(i)
		}
	}) / float64(inner)
}

// probeSink keeps probe results observable so the compiler keeps the work.
var probeSink int

// probeSparse prices the kernels on layer 0 of the Graph Challenge network
// (1024 wide, 32 in-edges per neuron), built through the same public
// constructors the engine uses, and states how far the 8-row gather sits
// from the host's copy bandwidth.
func probeSparse(l *ledger, env Env) error {
	cfg, err := core.GraphChallengeConfig(1024, 2)
	if err != nil {
		return err
	}
	g, err := core.Build(cfg)
	if err != nil {
		return err
	}
	pat, sys, shape := g.Sub(0), cfg.Systems[0], cfg.ShapeOrOnes()
	width := pat.Cols()
	m := sparse.MatrixFromPattern(pat, 4.0*float64(width)/float64(pat.NNZ()))

	var plan *sparse.StridePlan
	l.put("sparse.plan_compile_ms", medianNs(5, func() {
		plan, err = sparse.CompileStridePlan(pat, cfg.NPrime(), sys.PlaceValue(0), sys.Radix(0), shape[0], shape[1])
	})/1e6, "ms")
	if err != nil {
		return fmt.Errorf("bench: stride plan: %w", err)
	}
	var k *sparse.Kernel
	var rk *sparse.RadixKernel
	l.put("sparse.kernel_build_ms", medianNs(5, func() {
		if k, err = sparse.NewKernel(m); err == nil {
			rk, err = sparse.NewRadixKernel(m, k, plan)
		}
	})/1e6, "ms")
	if err != nil {
		return fmt.Errorf("bench: kernels: %w", err)
	}

	rng := rand.New(rand.NewSource(1))
	var ins, outs [8][]float64
	for r := range ins {
		ins[r], outs[r] = make([]float64, width), make([]float64, width)
		for c := range ins[r] {
			ins[r][c] = 1 - rng.Float64() // dense row, values in (0,1]
		}
	}
	thin, err := dataset.SparseBatch(1, width, width/10, 1)
	if err != nil {
		return err
	}
	const bias, clip = -0.10, 32.0
	edges := float64(m.NNZ())
	var nnz8 [8]int
	g8 := perCallNs(9, 200, func(int) { rk.FusedGatherRow8(&outs, &ins, bias, clip, &nnz8) }) / (8 * edges)
	l.put("sparse.gather8_ns_per_edge", g8, "ns")
	l.put("sparse.gather1_ns_per_edge", perCallNs(9, 400, func(int) {
		probeSink += rk.FusedGatherRow(outs[0], ins[0], bias, clip)
	})/edges, "ns")
	l.put("sparse.csc_gather_ns_per_edge", perCallNs(9, 400, func(int) {
		probeSink += k.FusedGatherRow(outs[0], ins[0], bias, clip)
	})/edges, "ns")
	// A scatter touches only the out-edges of the row's nonzero inputs.
	touched := float64(width/10) * edges / float64(pat.Rows())
	l.put("sparse.scatter1_ns_per_edge", perCallNs(9, 400, func(int) {
		probeSink += rk.FusedScatterRow(outs[0], thin.RowSlice(0), bias, clip)
	})/touched, "ns")

	// Computed, not measured: the bytes an 8-row gather must move per edge
	// if every array is read or written once — the weights (shared by the
	// eight rows) plus eight input and eight output rows.
	bytesPerEdge := (8*edges + 8*8*float64(pat.Rows()+width)) / (8 * edges)
	l.put("sparse.bytes_per_edge", bytesPerEdge, "B")

	// The bandwidth reference is a memmove over buffers of at least four
	// last-level caches, so neither side stays cached; it counts the bytes
	// read plus the bytes written.
	size := 4 * env.LLCBytes
	if size < 64<<20 {
		size = 64 << 20
	}
	if size > 128<<20 {
		size = 128 << 20 // a VM may report its host's whole L3; two buffers must still fit
	}
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination in before timing
	gbps := 2 * float64(size) / medianNs(3, func() { copy(dst, src) })
	probeSink += int(dst[size-1])
	l.put("host.copy_gbps", gbps, "GB/s")
	l.flags = append(l.flags, fmt.Sprintf("host.copy_gbps: memmove of %d MiB (LLC reported %d KiB), read+write bytes counted", size>>20, env.LLCBytes>>10))
	l.put("sparse.roofline_share", bytesPerEdge/g8/gbps, "ratio")
	return nil
}

// probeInfer prices the engine on the offline workload's network and reads
// the engine's public per-layer profiler to split a batch into kernel time
// and the engine's own.
func probeInfer(l *ledger, seed int64) error {
	cfg, err := core.GraphChallengeConfig(1024, 120)
	if err != nil {
		return err
	}
	var built *topology.FNNT
	l.put("core.build_ms", medianNs(3, func() { built, err = core.Build(cfg) })/1e6, "ms")
	if err != nil {
		return err
	}
	// The two counts repeat exactly, so they are checked, not just printed.
	edges := float64(built.NumEdges())
	if want := cfg.NumEdges(); !want.IsInt64() || want.Int64() != int64(built.NumEdges()) {
		return fmt.Errorf("bench: core.Build made %d edges, Config.NumEdges says %v", built.NumEdges(), want)
	}
	if d, want := built.Density(), core.Density(cfg); math.Abs(d-want) > 1e-12 {
		return fmt.Errorf("bench: built density %.17g, closed form %.17g", d, want)
	}
	l.put("core.edges", edges, "count")
	l.put("core.density", built.Density(), "ratio")

	var eng *infer.Engine
	l.put("infer.build_ms", medianNs(3, func() { eng, err = infer.FromConfigKernel(cfg, infer.KernelAuto) })/1e6, "ms")
	if err != nil {
		return err
	}
	batch, err := dataset.SparseBatch(InputRows, 1024, 102, seed)
	if err != nil {
		return err
	}
	run := func(e *infer.Engine) func() {
		return func() {
			if _, ierr := e.Infer(batch); ierr != nil && err == nil {
				err = ierr
			}
		}
	}
	medianNs(2, run(eng)) // size the scratch and warm the pool
	batchNs := medianNs(5, run(eng))
	l.put("infer.batch64_ms", batchNs/1e6, "ms")
	l.put("infer.gedges_per_s", InputRows*edges/batchNs, "G/s")
	// Nothing but Infer runs between the two readings, so any malloc
	// counted is the engine's.
	var m0, m1 runtime.MemStats
	infer3 := run(eng)
	runtime.ReadMemStats(&m0)
	infer3()
	infer3()
	infer3()
	runtime.ReadMemStats(&m1)
	l.put("infer.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/3, "count")

	eng.EnableProfiling(1)
	t0 := time.Now()
	medianNs(3, run(eng))
	profiledNs := float64(time.Since(t0).Nanoseconds())
	prof, _ := eng.Profile()
	eng.DisableProfiling()
	if prof.Batches != 3 {
		return fmt.Errorf("bench: profiler sampled %d of 3 batches", prof.Batches)
	}
	l.put("infer.kernel_share", float64(prof.TotalNs)/profiledNs, "ratio")
	l.self("infer.engine_self_us", "us", profiledNs/3/1e3, float64(prof.TotalNs)/3/1e3)

	active, _, ierr := eng.InferCategories(batch)
	if ierr != nil {
		return ierr
	}
	live := 0
	for _, a := range active {
		if a {
			live++
		}
	}
	l.put("infer.active_row_share", float64(live)/float64(len(active)), "ratio")

	var clone *infer.Engine
	l.put("infer.clone_ms", medianNs(5, func() { clone = eng.Clone() })/1e6, "ms")
	one := parallel.NewPool(1)
	clone.SetPool(one)
	medianNs(1, run(clone))
	l.put("parallel.speedup", medianNs(3, run(clone))/batchNs, "ratio")
	one.Close()

	pool := parallel.NewPool(0)
	l.put("parallel.run_overhead_us", perCallNs(9, 2000, func(int) {
		pool.Run(InputRows, 8, func(lo, hi int) {})
	})/1e3, "us")
	pool.Close()

	cfg24, err := core.GraphChallengeConfig(1024, 24)
	if err != nil {
		return err
	}
	eng24, err := infer.FromConfigKernel(cfg24, infer.KernelAuto)
	if err != nil {
		return err
	}
	if batch, err = dataset.SparseBatch(16, 1024, 102, seed); err != nil {
		return err
	}
	medianNs(2, run(eng24))
	l.put("infer.batch16_ms", medianNs(9, run(eng24))/1e6, "ms")
	return err
}

// probeObs prices the instrumentation primitives the request path calls.
func probeObs(l *ledger) error {
	var h obs.Histogram
	l.put("obs.observe_ns", perCallNs(9, 100_000, func(i int) { h.Observe(int64(i)) }), "ns")

	chain := make([]obs.Span, 7)
	for i, name := range []string{"route", "attempt:127.0.0.1:1", "admission", "queue", "assemble", "execute", "deliver"} {
		chain[i] = obs.MkSpan(name, time.Duration(i)*time.Millisecond, 137*time.Microsecond)
	}
	var derr error
	l.put("obs.spans_codec_us", perCallNs(9, 2000, func(int) {
		dec, err := obs.DecodeSpans(obs.EncodeSpans(chain))
		if err != nil || len(dec) != len(chain) {
			derr = fmt.Errorf("bench: span codec round trip: %d spans, %v", len(dec), err)
		}
	})/1e3, "us")

	ring := obs.NewTraceRing(obs.DefaultTraceDepth)
	tr := &obs.Trace{ID: obs.NewTraceID(), Model: modelName, Spans: chain}
	l.put("obs.trace_add_ns", perCallNs(9, 100_000, func(int) { ring.Add(tr) }), "ns")

	owners := cluster.NewRing(cluster.DefaultVnodes).Add("127.0.0.1:1", "127.0.0.1:2")
	l.put("cluster.ring_owners_ns", perCallNs(9, 20_000, func(int) {
		probeSink += len(owners.Owners(modelName, 2))
	}), "ns")
	return derr
}
