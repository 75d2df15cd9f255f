package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/selftest"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// runSelftest drives the full serving stack end-to-end over real HTTP:
// correctness (batched results bit-identical to per-row Engine.Infer) at
// several client concurrency levels, backpressure under deliberate
// saturation, the live model control plane, QoS starvation-freedom under a
// background flood, and the observability surface. The phases shared with
// the router tier live in internal/selftest; what needs this node's
// registry (leasing an engine away, counters, the engine profiler) is here.
func runSelftest(ctx context.Context, engines int, pol serve.Policy, qos serve.QoSConfig) error {
	if engines < 1 {
		engines = 1
	}
	// The selftest network: radix [8,8,8] → width 512, 3 layers. Large
	// enough that batching is exercised, small enough for a CI smoke run.
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		return err
	}
	reg, err := serve.NewRegistryQoS(pol, qos)
	if err != nil {
		return err
	}
	// Profile every engine batch: the profile phase checks the per-layer
	// tallies against the batches it sent, so no batch may be skipped.
	reg.SetProfileEvery(1)
	buildStart := time.Now()
	m, err := reg.Register("selftest", cfg, engines)
	if err != nil {
		return err
	}
	info := m.Info()
	log.Printf("selftest model: %d layers × width %d, %d weights, %d engines, built in %v",
		info.Layers, info.InputWidth, info.Weights, info.Engines, time.Since(buildStart).Round(time.Millisecond))

	// Profiling and tracing on: the selftest smokes /debug/traces and
	// /debug/pprof alongside the serving phases. Two SLO objectives arm
	// GET /v1/slo: a loose one every request meets and a 1µs latency
	// target nothing can meet, which the exemplar/SLO phase expects to see
	// burning hot ("violated").
	sloObjectives, err := slo.ParseObjectives([]string{"selftest::10s:50", "selftest::1us:99"})
	if err != nil {
		return err
	}
	srv := serve.NewServerOpts(reg, "127.0.0.1:0", serve.ServerOptions{
		Pprof: true,
		SLO:   sloObjectives,
	})
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	t := selftest.Node(selftest.NewClient(), "http://"+addr, "selftest")

	// Per-row ground truth from a private engine over the same config.
	width := m.InputWidth()
	in, err := dataset.SparseBatch(96, width, width/10, 7)
	if err != nil {
		return err
	}
	expected, err := selftest.Oracle(cfg, in)
	if err != nil {
		return err
	}

	if err := selftest.ConcurrencyPhase(ctx, t, []string{t.Model}, in, expected); err != nil {
		return err
	}
	if err := runBackpressurePhase(ctx, t.For("tiny"), reg); err != nil {
		return err
	}

	// The control plane: a model registered over the wire must serve
	// exactly what the boot-time registration of the same config serves,
	// through every hot reload, each of which bumps the pool generation.
	hot := t.For("hotswap")
	if err := selftest.ControlPlanePhase(ctx, hot, cfg, engines, in, expected, nil); err != nil {
		return err
	}
	gen, err := modelGeneration(ctx, hot)
	if err != nil {
		return err
	}
	if gen != 1+selftest.Reloads {
		return fmt.Errorf("control plane: generation %d after %d reloads, want %d", gen, selftest.Reloads, 1+selftest.Reloads)
	}
	if err := selftest.UnregisterPhase(ctx, hot, in.RowSlice(0)); err != nil {
		return err
	}

	if err := runQoSPhase(ctx, t, reg, m, in, expected); err != nil {
		return err
	}
	if _, err := selftest.ObsPhase(ctx, t, in.RowSlice(0)); err != nil {
		return err
	}
	if err := selftest.ExemplarSLOPhase(ctx, t, in); err != nil {
		return err
	}
	return runProfilePhase(ctx, t.For("profiled"), reg, cfg)
}

// runBackpressurePhase: a deliberately starved model — its only engine
// leased away — must shed overflow with 429 instead of queuing unboundedly,
// and everything accepted must still complete once the engine returns.
func runBackpressurePhase(ctx context.Context, t selftest.Target, reg *serve.Registry) error {
	tinyCfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4)}, nil)
	if err != nil {
		return err
	}
	tinyPol := serve.Policy{MaxBatch: 4, MaxLatency: 5 * time.Millisecond, QueueDepth: 4, Workers: 1}
	tiny, err := reg.RegisterWithPolicy(t.Model, tinyCfg, 1, tinyPol)
	if err != nil {
		return err
	}
	tinyIn, err := dataset.SparseBatch(32, tiny.InputWidth(), 3, 3)
	if err != nil {
		return err
	}
	eng := tiny.Lease()
	const flood = 32
	var got200, got429, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _, err := selftest.PostRow(ctx, t, tinyIn.RowSlice(i))
			switch {
			case err != nil:
				other.Add(1)
			case status == http.StatusOK:
				got200.Add(1)
			case status == http.StatusTooManyRequests:
				got429.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	// The worker can hold at most MaxBatch rows and the queue at most
	// QueueDepth, so with the engine starved at least
	// flood − MaxBatch − QueueDepth rejections must accumulate.
	minRejected := int64(flood - tinyPol.MaxBatch - tinyPol.QueueDepth)
	deadline := time.Now().Add(15 * time.Second)
	for tiny.Metrics().Snapshot().Rejected < minRejected && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tiny.Release(eng)
	wg.Wait()
	log.Printf("backpressure: %d sent → %d completed, %d rejected with 429, %d other",
		flood, got200.Load(), got429.Load(), other.Load())
	if got429.Load() < minRejected {
		return fmt.Errorf("backpressure: saturation produced %d 429s, want >= %d", got429.Load(), minRejected)
	}
	if got200.Load() == 0 {
		return fmt.Errorf("backpressure: nothing completed after the engine was released")
	}
	if other.Load() > 0 {
		return fmt.Errorf("backpressure: %d unexpected responses", other.Load())
	}
	return nil
}

// runQoSPhase runs the shared starvation-freedom phase when the configured
// class set has both classes it needs, then proves deadline shedding: a
// request whose budget is already dead must be answered 504 without
// executing, and the model's expired-row counter must show it.
func runQoSPhase(ctx context.Context, t selftest.Target, reg *serve.Registry, m *serve.Model, in *sparse.Dense, expected [][]float64) error {
	classes := reg.Classes()
	for _, c := range []string{serve.ClassInteractive, serve.ClassBackground} {
		if _, ok := classes[c]; !ok {
			log.Printf("qos: class set %v has no %q class; skipping starvation phase", classes, c)
			return nil
		}
	}
	if err := selftest.QoSPhase(ctx, t, in, expected); err != nil {
		return err
	}
	status, _, _, err := selftest.Post(ctx, t, serve.InferRequest{
		Class: serve.ClassBackground, DeadlineMs: 0.0001, Inputs: [][]float64{in.RowSlice(0)},
	})
	if err != nil || status != http.StatusGatewayTimeout {
		return fmt.Errorf("qos: expired deadline: status %d err %v, want 504", status, err)
	}
	if m.Metrics().Snapshot().Expired == 0 {
		return fmt.Errorf("qos: expired-row counter still zero after a shed")
	}
	log.Printf("qos: expired deadline shed with 504")
	return nil
}

// runProfilePhase checks the engine layer profiler against traffic whose
// shape is known exactly: a dedicated model whose engines each get a
// single-worker pool (engines == GOMAXPROCS makes the per-engine quota 1),
// driven with full 64-row batches, every batch profiled. The tallies must
// satisfy the profiler's own accounting identities, which hold on any host
// (a throughput figure would not): per layer edges = rows × nnz and rows ≤
// batches × MaxBatch, every layer saw the same batches, and the per-layer
// kernel time sits inside the model's execute time.
func runProfilePhase(ctx context.Context, t selftest.Target, reg *serve.Registry, cfg core.Config) error {
	profPol := serve.Policy{MaxBatch: 64, MaxLatency: -1, QueueDepth: 256, Workers: 1}
	pm, err := reg.RegisterWithPolicy(t.Model, cfg, runtime.GOMAXPROCS(0), profPol)
	if err != nil {
		return fmt.Errorf("profile: register profiled model: %w", err)
	}
	profIn, err := dataset.SparseBatch(64, pm.InputWidth(), pm.InputWidth()/10, 11)
	if err != nil {
		return err
	}
	inputs := make([][]float64, profIn.Rows())
	for r := range inputs {
		inputs[r] = profIn.RowSlice(r)
	}
	for i := 0; i < 8; i++ {
		status, _, resp, err := selftest.Post(ctx, t, serve.InferRequest{Inputs: inputs})
		if err != nil || status != http.StatusOK || len(resp.Outputs) != len(inputs) {
			return fmt.Errorf("profile: batch %d: status %d outputs %d err %v", i, status, len(resp.Outputs), err)
		}
	}
	snap, ok := pm.Profile()
	if !ok {
		return fmt.Errorf("profile: profiled model reports no profile")
	}
	info := pm.Info()
	if len(snap.Layers) != info.Layers {
		return fmt.Errorf("profile: profile has %d layers, model %d", len(snap.Layers), info.Layers)
	}
	if snap.Batches == 0 || snap.TotalEdges == 0 || snap.GedgesPerSec <= 0 {
		return fmt.Errorf("profile: empty profile after traffic: %+v", snap)
	}
	for _, l := range snap.Layers {
		if l.Batches != snap.Batches || l.Rows == 0 || l.GedgesPerSec <= 0 {
			return fmt.Errorf("profile: layer %d saw %d of %d batches, %d rows: %+v", l.Layer, l.Batches, snap.Batches, l.Rows, l)
		}
		if l.Edges != l.Rows*int64(l.NNZ) || l.Rows > l.Batches*int64(profPol.MaxBatch) {
			return fmt.Errorf("profile: layer %d accounting broken (edges = rows × nnz, rows <= batches × %d): %+v", l.Layer, profPol.MaxBatch, l)
		}
	}
	if execNs := pm.Metrics().ExecHist.Snapshot().Sum; snap.TotalNs > execNs {
		return fmt.Errorf("profile: layers sum to %dns of kernel time, more than the model's %dns of execute time", snap.TotalNs, execNs)
	}
	log.Printf("profile: %d batches × %d layers profiled; edges = rows × nnz per layer, kernel time inside execute time",
		snap.Batches, len(snap.Layers))
	return nil
}

// modelGeneration reads GET /v1/models and returns the target model's
// engine-pool generation.
func modelGeneration(ctx context.Context, t selftest.Target) (int, error) {
	infos, err := t.Models(ctx)
	if err != nil {
		return 0, err
	}
	for _, info := range infos {
		if info.Name == t.Model {
			return info.Generation, nil
		}
	}
	return 0, fmt.Errorf("model %q not listed", t.Model)
}
