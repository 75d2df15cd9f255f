package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/selftest"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// selftestBackends is the in-process fleet size of the main selftest phases:
// enough for a replica pair plus a backend to kill.
const selftestBackends = 3

// runSelftest drives the sharded fleet end-to-end: selftestBackends in-process
// radixserve instances, models placed by the router's ring, bit-identity
// against direct Engine.Infer, the fleet control plane, routed QoS and
// observability, and a mid-load backend kill that must complete with zero
// failed requests. The phases shared with the radixserve tier live in
// internal/selftest and run here against the router; what needs the ring,
// the backends' registries or a backend to kill is in this file.
func runSelftest(ctx context.Context, replicas int) error {
	if replicas < 2 {
		replicas = 2
	}

	// The selftest network: radix [4,4,4] → width 64, 3 layers. Small
	// enough that a whole fleet of them boots in milliseconds, big enough
	// that batching and forwarding are exercised.
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4, 4)}, nil)
	if err != nil {
		return err
	}
	models := []string{"shard-0", "shard-1", "shard-2", "shard-3"}

	fleet, err := selftest.StartFleet(ctx, selftestBackends, serve.Policy{MaxBatch: 32, MaxLatency: time.Millisecond}, serve.ServerOptions{})
	if err != nil {
		return err
	}
	defer fleet.Shutdown(ctx)
	for _, reg := range fleet.Regs {
		// Profile every engine batch so the merged /metrics exposition
		// carries radixserve_engine_gedges_per_sec for the fleet-obs phase.
		reg.SetProfileEvery(1)
	}

	// Two SLO objectives arm the router's fleet-evaluated GET /v1/slo: a
	// loose one every request meets and a 1µs latency target nothing can,
	// which the exemplar/SLO phase expects to see "violated".
	rtObjectives, err := slo.ParseObjectives([]string{"shard-0::10s:50", "shard-0::1us:99"})
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Addr:       "127.0.0.1:0",
		Backends:   fleet.Addrs,
		Replicas:   replicas,
		MaxBackoff: 100 * time.Millisecond,
		// The selftest doubles as an observability smoke test: profiling
		// endpoints and the trace ring must answer on the router too.
		Pprof: true,
		SLO:   rtObjectives,
		Set: cluster.SetConfig{
			ProbeInterval: 100 * time.Millisecond,
			FailAfter:     2,
		},
	})
	if err != nil {
		return err
	}
	buildStart := time.Now()
	for _, model := range models {
		owners := rt.Placement(model)
		for _, id := range owners {
			if _, err := fleet.Regs[id].Register(model, cfg, 1); err != nil {
				return err
			}
		}
		log.Printf("model %s → %v", model, owners)
	}
	width := cfg.LayerWidths()[0]
	log.Printf("fleet: %d backends × %d models (width %d, %d layers, %d replicas), built in %v",
		selftestBackends, len(models), width, len(cfg.LayerWidths())-1, replicas, time.Since(buildStart).Round(time.Millisecond))

	bound, err := rt.Start()
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(sctx); err != nil {
			log.Printf("router shutdown: %v", err)
		}
	}()
	t := selftest.Routed(selftest.NewClient(), "http://"+bound, models[0])

	// Per-row ground truth from a private engine over the same config.
	in, err := dataset.SparseBatch(48, width, width/10, 7)
	if err != nil {
		return err
	}
	expected, err := selftest.Oracle(cfg, in)
	if err != nil {
		return err
	}

	// Phase 1 — bit-identity through the router, for every model (so every
	// backend and every ring placement is exercised), with routing pinned
	// to each model's owners.
	for _, model := range models {
		if err := selftest.BitIdentityPhase(ctx, t.For(model), in, expected, rt.Placement(model)); err != nil {
			return err
		}
	}
	log.Printf("bit-identity: %d rows × %d models routed, all bit-identical to direct Engine.Infer", in.Rows(), len(models))

	// Phase 2 — routed load at several client concurrency levels, spread
	// across all models so the whole fleet carries it.
	if err := selftest.ConcurrencyPhase(ctx, t, models, in, expected); err != nil {
		return err
	}

	// Phase 3 — model control plane through the router: register a new
	// model fleet-wide at runtime, prove bit-identity, hot-reload it on
	// every replica under concurrent load with zero failures, unregister,
	// observe 404. Runs while the whole fleet is alive, so placement-aware
	// registration can reach every intended owner.
	if err := runControlPlanePhase(ctx, t.For("live"), rt, fleet, cfg, in, expected); err != nil {
		return err
	}

	// Phase 3b — QoS through the router: a saturating routed background
	// flood must not starve interactive probes of the same model, and the
	// class must round-trip (body → router header → backend scheduler →
	// response). Runs while the fleet is whole, before the kill phase.
	if err := selftest.QoSPhase(ctx, t.For(models[1]), in, expected); err != nil {
		return err
	}

	// Phase 3c — observability through the router: a caller-chosen trace ID
	// survives the client → router → backend → response round trip, the
	// router retains the trace stitched with the backend's spans, and
	// profiling endpoints answer.
	if err := runObsPhase(ctx, t, in); err != nil {
		return err
	}

	// Phase 3d — fleet-level observability: merged exemplars resolving in
	// the router's trace ring, the fleet-evaluated SLO engine flipping to
	// "violated" on the unmeetable objective, and backend engine profiles
	// through the merge. Runs while the fleet is whole.
	if err := selftest.ExemplarSLOPhase(ctx, t, in); err != nil {
		return err
	}
	if err := runEngineProfilePhase(ctx, t); err != nil {
		return err
	}

	// Phase 4 — kill a backend mid-load; every request must still succeed.
	if err := runFailoverPhase(ctx, t, rt, fleet, in, expected); err != nil {
		return err
	}

	// Phase 5 — the autoscale control loop, on its own larger fleet:
	// zipfian popularity, static-replica baseline vs autoscaled tail
	// latency, zone-diverse scale-out, and SLO-triggered actuation.
	return runAutoscalePhase(ctx)
}

// runControlPlanePhase drives the fleet control plane end to end through
// the router: POST /v1/models registers a model on its ring-intended
// replicas (and nowhere else), routed inference against it is bit-identical
// to direct Engine.Infer and answered only by those owners, PUT
// /v1/models/{name} hot-reloads every replica under concurrent routed load
// with zero failed requests, and DELETE removes it fleet-wide (after which
// the router answers 404).
func runControlPlanePhase(ctx context.Context, t selftest.Target, rt *cluster.Router, fleet *selftest.Fleet, cfg core.Config, in *sparse.Dense, expected [][]float64) error {
	owners := rt.Placement(t.Model)
	if err := selftest.ControlPlanePhase(ctx, t, cfg, 1, in, expected, owners); err != nil {
		return err
	}
	// The fan-out verdicts: exactly the ring owners host the model, and a
	// fleet-wide reload reached every one of them each time.
	for id, reg := range fleet.Regs {
		m, has := reg.Model(t.Model)
		if has != slices.Contains(owners, id) {
			return fmt.Errorf("control plane: backend %s hosts=%v, want placement %v", id, has, owners)
		}
		if has && m.Generation() != 1+selftest.Reloads {
			return fmt.Errorf("control plane: backend %s at generation %d after %d fleet reloads, want %d",
				id, m.Generation(), selftest.Reloads, 1+selftest.Reloads)
		}
	}
	log.Printf("control plane: %q on exactly its %d ring owners %v, every replica at generation %d",
		t.Model, len(owners), owners, 1+selftest.Reloads)
	return selftest.UnregisterPhase(ctx, t, in.RowSlice(0))
}

// runObsPhase runs the shared trace smoke through the router, then checks
// what only a router trace has: its own route/attempt spans with backend
// attribution, stitched with the backend's per-stage spans.
func runObsPhase(ctx context.Context, t selftest.Target, in *sparse.Dense) error {
	found, err := selftest.ObsPhase(ctx, t, in.RowSlice(0))
	if err != nil {
		return err
	}
	hasRoute := false
	var attempt, queue, execute *obs.Span
	for i := range found.Spans {
		s := &found.Spans[i]
		switch {
		case s.Name == "route":
			hasRoute = true
		case strings.HasPrefix(s.Name, "attempt:"):
			attempt = s
		case s.Name == "queue":
			queue = s
		case s.Name == "execute":
			execute = s
		}
	}
	if !hasRoute || attempt == nil || found.Backend == "" {
		return fmt.Errorf("obs: router trace missing route/attempt spans or backend attribution: %+v", found)
	}
	// The stitched view: the backend's own spans ride the X-Radix-Spans
	// response header and are grafted under the router's attempt span,
	// rebased to the router's clock — so one trace shows both tiers with
	// consistent offsets (backend work cannot start before the attempt).
	if queue == nil || execute == nil {
		return fmt.Errorf("obs: router trace not stitched — backend queue/execute spans missing: %+v", found.Spans)
	}
	const slack = 1e-3 // ms; offsets are rendered at µs resolution
	if queue.StartMs < attempt.StartMs-slack || execute.StartMs < queue.StartMs-slack {
		return fmt.Errorf("obs: stitched span offsets not monotonic: attempt %.3fms, queue %.3fms, execute %.3fms",
			attempt.StartMs, queue.StartMs, execute.StartMs)
	}
	if end := execute.StartMs + execute.DurMs; end > found.TotalMs+slack {
		return fmt.Errorf("obs: stitched execute span ends at %.3fms, beyond the trace total %.3fms", end, found.TotalMs)
	}
	log.Printf("obs: router trace stitched: route+attempt+queue+execute with monotonic offsets")
	return nil
}

// runEngineProfilePhase requires the backend engine profiles to surface
// through the router's merged /metrics exposition, backend-labeled.
func runEngineProfilePhase(ctx context.Context, t selftest.Target) error {
	scrape, err := t.Metrics(ctx)
	if err != nil {
		return err
	}
	series := 0
	for i := range scrape.Samples {
		sm := &scrape.Samples[i]
		if _, labeled := sm.Label("backend"); labeled && sm.Name == serve.MetricEngineGedges.Name() && sm.Value > 0 {
			series++
		}
	}
	if series == 0 {
		return fmt.Errorf("fleet-obs: no positive backend-labeled %s series in the merged exposition", serve.MetricEngineGedges.Name())
	}
	log.Printf("fleet-obs: %d backend engine profiles surface through the merged exposition", series)
	return nil
}

// runFailoverPhase kills a backend mid-load. Every request must still
// succeed: in-flight rows drain through the dying node's graceful shutdown,
// and everything after fails over to the surviving replica. Zero failures
// is the acceptance bar.
func runFailoverPhase(ctx context.Context, t selftest.Target, rt *cluster.Router, fleet *selftest.Fleet, in *sparse.Dense, expected [][]float64) error {
	victim := rt.Placement(t.Model)[0]
	const (
		floodWorkers  = 8
		floodRequests = 400
		killAfter     = floodRequests / 4
	)
	var sent, failed, killed atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	killGate := make(chan struct{})
	for w := 0; w < floodWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := sent.Add(1)
				if i > floodRequests {
					return
				}
				if i == killAfter {
					close(killGate)
				}
				r := int(i) % in.Rows()
				if err := selftest.CheckRow(ctx, t, in.RowSlice(r), expected[r], nil); err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("request %d: %v", i, err))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killGate
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_ = fleet.Srvs[victim].Shutdown(sctx) // the point is killing it
		killed.Store(1)
	}()
	wg.Wait()
	if killed.Load() != 1 {
		return fmt.Errorf("failover phase never killed the backend (load too short?)")
	}
	failovers := rt.Metrics().Failovers
	if failed.Load() > 0 {
		return fmt.Errorf("failover: %d of %d requests failed after killing %s (first: %v)",
			failed.Load(), floodRequests, victim, firstErr.Load())
	}
	if failovers == 0 {
		return fmt.Errorf("failover: backend %s killed mid-load but the router never failed over", victim)
	}
	log.Printf("failover: killed %s after %d requests; %d/%d succeeded (%d failover retries), zero failures",
		victim, killAfter, floodRequests, floodRequests, failovers)
	return nil
}
