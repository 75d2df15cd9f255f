// SLO observability: serve a model with burn-rate objectives armed, then
// walk the full observability chain the server exposes — an inference
// request's trace ID, the exemplar-annotated latency buckets on /metrics,
// the exemplar→trace jump via /debug/traces?trace=, and the multi-window
// SLO evaluation on /v1/slo.
//
// Two objectives are registered: a deliberately unmeetable 1µs latency
// bound (every request burns its error budget, so it reads "violated")
// and a loose 10s bound (reads "ok"). Real deployments set these with
// the -slo flag on radixserve or radixrouter; the router variant
// evaluates objectives against the fleet-merged histograms.
//
// Run with:
//
//	go run ./examples/slo_observability
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	radixnet "github.com/radix-net/radixnet"
)

func main() {
	log.SetFlags(0)

	// A small RadiX-Net served under the default QoS policy.
	sys := radixnet.MustSystem(4, 4)
	cfg, err := radixnet.NewConfig([]radixnet.System{sys}, nil)
	if err != nil {
		log.Fatal(err)
	}
	reg := radixnet.NewRegistry(radixnet.ServePolicy{MaxBatch: 8, MaxLatency: time.Millisecond})
	reg.SetProfileEvery(1) // profile every engine batch (flag: -profile-every)
	model, err := reg.Register("demo", cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	// -slo "demo::1us:99" -slo "demo::10s:50", as flags would spell it.
	objectives, err := radixnet.ParseSLOObjectives([]string{"demo::1us:99", "demo::10s:50"})
	if err != nil {
		log.Fatal(err)
	}
	srv := radixnet.NewServerOpts(reg, "127.0.0.1:0", radixnet.ServerOptions{
		SLO: objectives,
	})
	addr, err := srv.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	base := "http://" + addr

	// Drive a few requests; each response carries its trace ID and the
	// span breakdown header the router would stitch into its own trace.
	var traceID string
	row := make([]float64, model.InputWidth())
	row[0] = 1
	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(map[string]any{"model": "demo", "inputs": [][]float64{row}})
		resp, err := http.Post(base+"/v1/infer", "application/json", strings.NewReader(string(body)))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		traceID = resp.Header.Get(radixnet.HeaderTraceID)
		if i == 0 {
			fmt.Printf("request traced as %s\n  %s: %s\n", traceID, radixnet.HeaderSpans, resp.Header.Get(radixnet.HeaderSpans))
		}
	}

	// The latency buckets on /metrics carry exemplars — the most recent
	// trace that landed in each bucket.
	fmt.Println("\nexemplar-annotated latency buckets:")
	for _, line := range strings.Split(get(base+"/metrics"), "\n") {
		if strings.HasPrefix(line, `radixserve_request_latency_seconds_bucket{model="demo"`) &&
			strings.Contains(line, "trace_id") {
			fmt.Println(" ", line)
		}
	}

	// Any bucket's trace_id resolves to the full span breakdown.
	var lookup struct {
		Trace *radixnet.Trace `json:"trace"`
	}
	if err := json.Unmarshal([]byte(get(base+"/debug/traces?trace="+traceID)), &lookup); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n?trace=%s → %d spans, total %.3fms\n", traceID, len(lookup.Trace.Spans), lookup.Trace.TotalMs)
	for _, s := range lookup.Trace.Spans {
		fmt.Printf("  %-10s +%.3fms  %.3fms\n", s.Name, s.StartMs, s.DurMs)
	}

	// The burn-rate engine: the 1µs objective is violated (every request
	// exceeds it in both windows), the 10s objective is ok.
	var view radixnet.SLOView
	if err := json.Unmarshal([]byte(get(base+"/v1/slo")), &view); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSLO view (fast %s / slow %s):\n", view.FastWindow, view.SlowWindow)
	for _, st := range view.Statuses {
		fmt.Printf("  %-16s state=%-9s fast burn %6.1f×  slow burn %6.1f×  budget %5.1f%%\n",
			st.Objective.Name, st.State, st.FastBurn, st.SlowBurn, 100*st.BudgetRemaining)
	}

	// Engine-level profiling, sampled per batch: Gedges/s by layer.
	if prof, ok := model.Profile(); ok {
		fmt.Printf("\nengine profile: %.3f Gedges/s over %d batches\n", prof.GedgesPerSec, prof.Batches)
		for _, l := range prof.Layers {
			fmt.Printf("  layer %d: nnz %-5d %.3f Gedges/s\n", l.Layer, l.NNZ, l.GedgesPerSec)
		}
	}
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(data)
}
