// Command radixrouter is the sharding router tier for a fleet of
// radixserve instances: it places models onto backends with a
// consistent-hash ring (128 virtual nodes per backend, replication factor
// -replicas), actively probes each backend's GET /healthz (ejecting nodes
// after consecutive failures and re-admitting them on recovery), and
// exposes the same HTTP API as a single radixserve node:
//
//	POST   /v1/infer          forwarded to the model's owning healthy
//	                          replica, with bounded retry-on-next-replica
//	                          failover and Retry-After-honoring backoff on 429
//	GET    /v1/models         the fleet's models merged, with ring placement
//	POST   /v1/models         register a model on its ring-intended replicas
//	PUT    /v1/models/{name}  hot-reload the model on every backend
//	                          reporting it
//	DELETE /v1/models/{name}  unregister the model fleet-wide
//	GET    /v1/autoscale      replica control-loop state: per-model load
//	                          signals, stability counters, recent actuations
//	                          (404 unless -autoscale)
//	GET    /healthz           router + per-backend health (incl. each
//	                          backend's self-reported zone)
//	GET    /metrics           radixrouter_* series — including fleet-merged
//	                          radixrouter_model_* latency histograms (backend
//	                          histograms summed bucket-wise) and per-backend
//	                          attempt latency — plus every backend's series,
//	                          labeled backend="host:port", merged
//	GET    /debug/traces      recent + slowest routed request traces as JSON;
//	                          X-Radix-Trace-Id is propagated to backends and
//	                          echoed on every response
//	GET    /debug/pprof/*     runtime profiling, only with -pprof
//
// Backends are given as repeated -backend flags ("host:port" or
// "http://host:port"). Because every backend runs the same deterministic
// engines, routed results are bit-identical to single-node inference.
//
// The router is QoS-aware: a request's "class" and "deadline_ms" are
// forwarded to backends as X-Radix-Class and X-Radix-Deadline-Ms headers
// (the deadline recomputed per attempt to the remaining budget), and retry
// budgets are per class (-class-retries; by default background requests
// get one backend attempt and no 429 backoff wait, so low-priority floods
// cannot burn the failover budget interactive traffic needs).
//
// Placement is zone-aware: backends self-report a failure domain on
// /healthz (radixserve -zone), or get one seeded via -zones ID=ZONE,...;
// each model's R replicas then spread across min(R, zones) distinct zones,
// with failover preferring yet another zone. With -autoscale the router
// also runs a replica control loop: every -autoscale-interval it derives
// per-model queue-wait p90 (from the fleet-merged histograms), 429 rate,
// and SLO burn state, and scales each model's replica count through the
// register/unregister fan-out — bounded by hysteresis (-autoscale-up-p90 /
// -autoscale-down-p90 bands, -autoscale-up-after debounce,
// -autoscale-min-samples evidence gate), cooldown, step, and min/max; an
// SLO violated at the replica ceiling sheds the background class as a
// last resort. Live state is on GET /v1/autoscale. The loop's acceptance
// test is TestAutoscaleLoopEndToEnd in internal/cluster; the other
// acceptance phases of both tiers are `go test ./internal/selftest`.
//
// Usage:
//
//	radixrouter -backend host1:8080 -backend host2:8080 [-addr :8090]
//	            [-replicas 2] [-probe-interval 2s]
//	            [-probe-timeout 1s] [-fail-after 3] [-max-backoff 1s]
//	            [-zones host1:8080=zone-a,host2:8080=zone-b]
//	            [-autoscale] [-autoscale-interval 5s] [-autoscale-max 8]
//	            [-pprof] [-slow-request 250ms]
package main

import (
	"context"
	"flag"
	"log"
	"strings"
	"time"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/cliutil"
	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/obs/slo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("radixrouter: ")
	var (
		cfg  cluster.RouterConfig
		auto autoscale.Policy
	)
	flag.StringVar(&cfg.Addr, "addr", ":8090", "router listen address")
	flag.IntVar(&cfg.Replicas, "replicas", 2, "ring owners per model (the failover budget)")
	flag.DurationVar(&cfg.Set.ProbeInterval, "probe-interval", 2*time.Second, "per-backend /healthz probe cadence")
	flag.DurationVar(&cfg.Set.ProbeTimeout, "probe-timeout", time.Second, "single probe budget")
	flag.IntVar(&cfg.Set.FailAfter, "fail-after", 3, "consecutive failures (probe or forward) that eject a backend")
	flag.DurationVar(&cfg.MaxBackoff, "max-backoff", time.Second, "cap on Retry-After backoff honored for backend 429s")
	flag.Func("class-retries", "per-QoS-class backend attempt caps, NAME=N,... (default background=1,batch=2; unlisted classes walk every replica)", func(v string) (err error) {
		cfg.ClassRetries, err = cliutil.ParseClassWeights(v)
		return err
	})
	flag.Func("classes", "extra QoS class names to label in per-class metrics, comma-separated (unknown classes bucket as \"other\")", func(v string) error {
		cfg.MetricsClasses = strings.FieldsFunc(v, func(r rune) bool { return r == ',' || r == ' ' })
		return nil
	})
	flag.BoolVar(&cfg.Pprof, "pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	flag.DurationVar(&cfg.SlowRequest, "slow-request", 0, "log routed requests slower than this with their trace ID and span breakdown (0: off)")
	flag.Func("zones", "static backend zone seeds, ID=ZONE,... (backends self-reporting a zone on /healthz override these); zones spread each model's replicas across failure domains", func(v string) (err error) {
		cfg.Set.Zones, err = cliutil.ParseZones(v)
		return err
	})
	autoOn := flag.Bool("autoscale", false, "run the replica autoscale control loop (queue-wait p90, 429 rate, and SLO burn state drive per-model replica counts)")
	flag.DurationVar(&auto.Interval, "autoscale-interval", 0, "autoscale evaluation period (0: default 5s)")
	flag.IntVar(&auto.MinReplicas, "autoscale-min", 0, "autoscale floor on per-model replicas (0: default 1)")
	flag.IntVar(&auto.MaxReplicas, "autoscale-max", 0, "autoscale ceiling on per-model replicas (0: the fleet size)")
	flag.IntVar(&auto.MaxStep, "autoscale-step", 0, "max replicas one autoscale decision adds or removes (0: default 1)")
	flag.IntVar(&auto.Cooldown, "autoscale-cooldown", 0, "evaluation intervals a model is frozen after an actuation (0: default 3)")
	flag.IntVar(&auto.UpAfter, "autoscale-up-after", 0, "consecutive above-band intervals before a model scales out; SLO-violated pressure is exempt (0: default 1)")
	flag.IntVar(&auto.MinSamples, "autoscale-min-samples", 0, "fewest queue-wait observations an evaluation window needs before its p90 may trigger scale-out; 429 rate and SLO burn still actuate (0: gate off)")
	flag.DurationVar(&auto.ScaleUpP90, "autoscale-up-p90", 0, "queue-wait p90 above which a model scales out (0: default 50ms)")
	flag.DurationVar(&auto.ScaleDownP90, "autoscale-down-p90", 0, "queue-wait p90 below which a model counts toward scale-in; must stay below -autoscale-up-p90 (0: default up-p90/4)")
	shutdownTO := flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown budget after SIGINT/SIGTERM")
	flag.Func("backend", "radixserve backend, host:port or http://host:port (repeatable)", func(v string) error {
		cfg.Backends = append(cfg.Backends, v)
		return nil
	})
	flag.Var((*slo.Flag)(&cfg.SLO), "slo", "SLO objective MODEL:CLASS:LATENCY:TARGET_PCT (repeatable), evaluated against the FLEET-merged histograms; enables GET /v1/slo and radixrouter_slo_* metrics")
	flag.Parse()

	if len(cfg.Backends) == 0 {
		log.Fatal("no backends: pass at least one -backend host:port")
	}
	if *autoOn {
		cfg.Autoscale = &auto
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bound, err := rt.Start()
	if err != nil {
		log.Fatal(err)
	}
	ids := make([]string, 0, len(cfg.Backends))
	for _, b := range rt.Set().Backends() {
		ids = append(ids, b.ID())
	}
	log.Printf("routing %d backends [%s] with %d replicas per model, serving on %s",
		len(ids), strings.Join(ids, " "), rt.Replicas(), bound)
	cliutil.DrainOnSignal(context.Background(), *shutdownTO, rt.Shutdown)
}
