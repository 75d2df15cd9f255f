package cluster

import (
	"context"
	"net/http"
	"slices"
	"sort"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
)

// ModelsResponse is the router's GET /v1/models body: the fleet's models
// merged by name, plus each model's ring placement in failover order.
type ModelsResponse struct {
	Models    []serve.ModelInfo   `json:"models"`
	Placement map[string][]string `json:"placement"`
	Backends  int                 `json:"backends"`
	Healthy   int                 `json:"healthy_backends"`
	Replicas  int                 `json:"replicas"`
}

// handleModels merges GET /v1/models across the healthy fleet: the union
// of the backends' model lists (first answer wins per name) with ring
// placement attached.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	backends := rt.set.Backends()
	healthy := slices.DeleteFunc(slices.Clone(backends), func(b *Backend) bool { return !b.Healthy() })
	byName := make(map[string]serve.ModelInfo)
	for _, l := range rt.set.listModels(r.Context(), healthy) { // a failed listing is empty
		for _, info := range l.infos {
			if _, dup := byName[info.Name]; !dup {
				byName[info.Name] = info
			}
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ModelsResponse{
		Models:    make([]serve.ModelInfo, 0, len(names)),
		Placement: make(map[string][]string, len(names)),
		Backends:  len(backends),
		Healthy:   rt.set.HealthyCount(),
		Replicas:  rt.replicas,
	}
	for _, name := range names {
		out.Models = append(out.Models, byName[name])
		out.Placement[name] = rt.Placement(name)
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthzResponse is the router's GET /healthz body.
type HealthzResponse struct {
	Status        string          `json:"status"` // "ok", "degraded", or "down"
	UptimeSeconds float64         `json:"uptime_seconds"`
	Replicas      int             `json:"replicas"`
	Backends      []BackendStatus `json:"backends"`
}

// handleHealthz reports the router's view of the fleet: "ok" with every
// backend in rotation, "degraded" while some are ejected, "down" (503)
// when none remain.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	backends := rt.set.Backends()
	resp := HealthzResponse{
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Replicas:      rt.replicas,
		Backends:      make([]BackendStatus, 0, len(backends)),
	}
	healthy := 0
	for _, b := range backends {
		st := b.Status()
		if st.Healthy {
			healthy++
		}
		resp.Backends = append(resp.Backends, st)
	}
	code := http.StatusOK
	switch {
	case healthy == len(backends):
		resp.Status = "ok"
	case healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// scrapeBackends fetches /metrics from every healthy backend concurrently
// (each bounded by the probe timeout) and parses each scrape once,
// returning the backends and their scrapes index-aligned; unhealthy or
// failed backends leave nil. Everything downstream — the fleet merge, the
// SLO samples, the autoscaler's signals, the relabelled re-emission —
// reads the parsed form; no other function here accepts exposition text.
func (rt *Router) scrapeBackends(ctx context.Context) ([]*Backend, []*obs.Scrape) {
	backends := rt.set.Backends()
	return backends, perBackend(ctx, rt.set.cfg.ProbeTimeout, backends, func(ctx context.Context, b *Backend) *obs.Scrape {
		if !b.Healthy() {
			return nil
		}
		scrape, _ := b.client.Metrics(ctx) // a failed scrape is the nil entry callers skip
		return scrape
	})
}

// sloRecord feeds the router's SLO engine one cumulative fleet-merged
// sample per model (aggregate) and per model×class, derived from the
// backend scrapes and their merge — the router's objectives judge the
// whole fleet's traffic, not any single node's.
func (rt *Router) sloRecord(scrapes []*obs.Scrape, merged fleetMerge, now time.Time) {
	for _, fs := range collectFleetSLOSamples(scrapes, merged) {
		rt.slo.Record(fs.model, fs.class, fs.sample, now)
	}
}

// handleSLO is GET /v1/slo: scrape the fleet, merge the histogram and
// outcome-counter families, and evaluate every configured objective
// against the merged view. 404 when no objectives are configured.
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	if rt.slo == nil {
		writeJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "no SLO objectives configured"})
		return
	}
	_, scrapes := rt.scrapeBackends(r.Context())
	now := time.Now()
	rt.sloRecord(scrapes, mergeFleet(scrapes), now)
	writeJSON(w, http.StatusOK, rt.slo.ViewOf(now))
}

// handleMetrics merges /metrics across the fleet: the router's own
// radixrouter_* series first, then every healthy backend's scrape with
// each series labeled backend=id and HELP/TYPE headers deduplicated.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	backends, scrapes := rt.scrapeBackends(r.Context())
	var out obs.Writer
	writeRouterMetrics(&out, &rt.met, backends, time.Since(rt.start).Seconds())
	// Fleet-level latency distributions: every backend exports the same
	// log-bucket le ladder, so the router's merged view is a straight
	// per-le sum across the scrapes — quantiles of the merged histogram
	// are true fleet quantiles, not averages of per-node quantiles.
	merged := mergeFleet(scrapes)
	writeFleetHistograms(&out, merged)
	if rt.slo != nil {
		now := time.Now()
		rt.sloRecord(scrapes, merged, now)
		writeSLOMetrics(&out, rt.slo.Evaluate(now))
	}
	writeRuntimeMetrics(&out)
	for i, b := range backends {
		if scrapes[i] != nil {
			out.Relabel(scrapes[i], "backend", b.id)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(out.Bytes()) // a scraper that hung up is not the router's error
}
