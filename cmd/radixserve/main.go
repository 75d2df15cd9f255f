// Command radixserve is the production inference service: it loads
// RadiX-Net models into a registry of warm engine pools and serves them
// over an HTTP JSON API with dynamic micro-batching, bounded queues with
// explicit backpressure (HTTP 429), Prometheus-style metrics, and graceful
// shutdown on SIGINT/SIGTERM.
//
// Requests are QoS-aware: the /v1/infer body may carry "class" (one of the
// configured priority classes; default set interactive/batch/background
// with weights 8/2/1, overridable via -class-weight) and "deadline_ms" (a
// budget after which still-queued rows are shed with 504 instead of
// executing). Each model schedules its per-class queues by deficit
// round-robin, so a background flood cannot starve interactive traffic.
// At most GOMAXPROCS batch executions run at once across all models; set
// GOMAXPROCS to give the models fewer cores.
//
// Endpoints:
//
//	POST   /v1/infer          {"model":"e10","inputs":[[...]],"class":"interactive",
//	                           "deadline_ms":250,"categories":true}
//	GET    /v1/models         registered models and their batching policies
//	POST   /v1/models         register a model at runtime from graphio config
//	                          JSON: {"name":"m","config":{"systems":[[8,8]]}}
//	PUT    /v1/models/{name}  atomic hot-reload: swap the model's engine pool
//	                          for one of the same size built from the request
//	                          config; in-flight batches finish on the old
//	                          engines
//	DELETE /v1/models/{name}  drain and unregister the model
//	GET    /healthz           liveness ("ok", or "draining" with 503 during
//	                          graceful shutdown)
//	GET    /metrics           request/batch/latency counters plus log-bucketed
//	                          latency histograms (Prometheus text)
//	GET    /debug/traces      recent + slowest request traces as JSON; every
//	                          response also carries X-Radix-Trace-Id and a
//	                          per-stage span breakdown
//	GET    /debug/pprof/*     runtime profiling, only with -pprof
//
// Models are given as repeated -model flags, "name=SPEC" where SPEC is
// either a mixed-radix systems spec in the cliutil grammar (e.g. "8,8,8" or
// "(3,3,4);(2,3)") or "gc:WIDTHxLAYERS" for a Graph Challenge–style
// configuration. With no -model flags two demo models are served: demo
// (radix 4,4,4) and e10 (radix 8,8,8,8, the E10 acceptance network).
//
// Usage:
//
//	radixserve [-addr :8080] [-model e10=8,8,8,8]... [-engines 2]
//	           [-max-batch 32] [-max-latency 2ms] [-queue 256]
//	           [-class-weight interactive=8,batch=2,background=1]
//	           [-pprof] [-slow-request 250ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"github.com/radix-net/radixnet/internal/cliutil"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
)

// modelSpec is one parsed -model flag.
type modelSpec struct {
	name string
	cfg  core.Config
}

// parseModelSpec resolves "gc:WIDTHxLAYERS" or a cliutil systems spec.
func parseModelSpec(spec string) (core.Config, error) {
	if gc, ok := strings.CutPrefix(spec, "gc:"); ok {
		ws, ls, ok := strings.Cut(gc, "x")
		if !ok {
			return core.Config{}, fmt.Errorf("want gc:WIDTHxLAYERS, got %q", spec)
		}
		width, err1 := strconv.Atoi(ws)
		layers, err2 := strconv.Atoi(ls)
		if err1 != nil || err2 != nil {
			return core.Config{}, fmt.Errorf("want gc:WIDTHxLAYERS, got %q", spec)
		}
		return core.GraphChallengeConfig(width, layers)
	}
	systems, err := cliutil.ParseSystems(spec)
	if err != nil {
		return core.Config{}, err
	}
	return core.NewConfig(systems, nil)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("radixserve: ")
	var (
		pol    serve.Policy
		qos    serve.QoSConfig
		opts   serve.ServerOptions
		models []modelSpec
	)
	addr := flag.String("addr", ":8080", "listen address")
	engines := flag.Int("engines", 2, "warm engines per model, each driven by its own batch worker")
	flag.IntVar(&pol.MaxBatch, "max-batch", 32, "rows coalesced into one engine invocation")
	flag.DurationVar(&pol.MaxLatency, "max-latency", 2*time.Millisecond, "how long a short batch waits for more rows (negative: no waiting)")
	flag.IntVar(&pol.QueueDepth, "queue", 256, "pending-row bound PER CLASS; beyond it requests get 429, and a request with more rows gets 413")
	flag.Func("class-weight", "QoS classes and weighted-fair-queuing weights, NAME=N,... (default interactive=8,batch=2,background=1; unlabeled requests run as interactive, else the heaviest class)", func(v string) (err error) {
		qos.Weights, err = cliutil.ParseClassWeights(v)
		return err
	})
	flag.BoolVar(&opts.Pprof, "pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	flag.DurationVar(&opts.SlowRequest, "slow-request", 0, "log requests slower than this with their trace ID and span breakdown (0: off)")
	profEvery := flag.Int("profile-every", 16, "time every Nth engine batch per layer (Gedges/s on /metrics; 0: off)")
	flag.StringVar(&opts.Zone, "zone", "", "failure domain (rack/availability zone) self-reported on /healthz for the router's zone-aware placement")
	shutdownTO := flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown budget after SIGINT/SIGTERM")
	flag.Func("model", "model to serve, NAME=SPEC (repeatable); SPEC is a radix systems spec like 8,8,8 or gc:WIDTHxLAYERS", func(v string) error {
		name, spec, ok := strings.Cut(v, "=")
		if !ok || name == "" || spec == "" {
			return fmt.Errorf("want NAME=SPEC, got %q", v)
		}
		cfg, err := parseModelSpec(spec)
		if err != nil {
			return err
		}
		models = append(models, modelSpec{name: name, cfg: cfg})
		return nil
	})
	flag.Var((*slo.Flag)(&opts.SLO), "slo", "SLO objective MODEL:CLASS:LATENCY:TARGET_PCT (repeatable), e.g. '*:interactive:250ms:99' or 'e10::error:99.9'; enables GET /v1/slo and radixserve_slo_* metrics")
	flag.Parse()

	if len(models) == 0 {
		for _, def := range []struct{ name, spec string }{
			{"demo", "4,4,4"},
			{"e10", "8,8,8,8"},
		} {
			cfg, err := parseModelSpec(def.spec)
			if err != nil {
				log.Fatal(err)
			}
			models = append(models, modelSpec{name: def.name, cfg: cfg})
		}
	}

	reg, err := serve.NewRegistryQoS(pol, qos)
	if err != nil {
		log.Fatal(err)
	}
	reg.SetProfileEvery(*profEvery)
	log.Printf("QoS classes %v (default %q)", reg.Classes(), reg.DefaultClass())
	for _, ms := range models {
		start := time.Now()
		m, err := reg.Register(ms.name, ms.cfg, *engines)
		if err != nil {
			log.Fatal(err)
		}
		info := m.Info()
		log.Printf("model %q: %d layers × width %d→%d, %d weights, %d engines, built in %v",
			info.Name, info.Layers, info.InputWidth, info.OutputWidth, info.Weights,
			info.Engines, time.Since(start).Round(time.Millisecond))
	}

	srv := serve.NewServerOpts(reg, *addr, opts)
	bound, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s (POST /v1/infer, GET /v1/models /healthz /metrics)", bound)
	cliutil.DrainOnSignal(context.Background(), *shutdownTO, srv.Shutdown)
}
