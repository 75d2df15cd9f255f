package cluster

import (
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
)

// The fleet-merged histogram families the selftests read back by name.
var (
	MetricModelRequestLatency = obs.NewSeconds("radixrouter_model_request_latency_seconds",
		"Fleet-merged end-to-end request latency by model (bucket-wise sum across backends).", "model")
	MetricModelQueueWait = obs.NewSeconds("radixrouter_model_queue_wait_seconds",
		"Fleet-merged class-queue wait by model and class (bucket-wise sum across backends).", "class", "model")

	metricModelClassRequestLatency = obs.NewSeconds("radixrouter_model_class_request_latency_seconds",
		"Fleet-merged end-to-end request latency by model and class (bucket-wise sum across backends).", "class", "model")
)

// fleetHistograms maps each serve-tier histogram family to the
// fleet-merged family the router re-emits it under, summed over the
// merged family's own labels. Merging is valid because every latency
// family shares the identical le ladder: summing cumulative bucket counts
// per le across backends yields the exact histogram a single node
// observing all the traffic would have exported.
var fleetHistograms = []struct{ src, dst *obs.Family }{
	{serve.MetricRequestLatency, MetricModelRequestLatency},
	{serve.MetricQueueWait, MetricModelQueueWait},
	{serve.MetricExecute, obs.NewSeconds("radixrouter_model_execute_seconds",
		"Fleet-merged engine execute time by model (bucket-wise sum across backends).", "model")},
	{serve.MetricClassRequestLatency, metricModelClassRequestLatency},
}

// fleetMerge is one scrape round's fleet-merged histogram series, keyed
// by the serve family merged, each merged once by its fleet family's
// labels (fleetHistograms). The re-emitted families and the SLO samples
// of a round both read it.
type fleetMerge map[*obs.Family][]obs.HistSeries

// mergeFleet merges each of the serve tier's histogram families in
// fleetHistograms across the backend scrapes, bucket-wise per label set
// (model, or model×class).
func mergeFleet(scrapes []*obs.Scrape) fleetMerge {
	merged := make(fleetMerge, len(fleetHistograms))
	for _, fh := range fleetHistograms {
		merged[fh.src] = obs.MergeHist(fh.src, fh.dst.Labels(), nil, scrapes...)
	}
	return merged
}

// writeFleetHistograms re-emits the merged serve-tier histogram families
// as radixrouter_model_* families.
func writeFleetHistograms(w *obs.Writer, merged fleetMerge) {
	for _, fh := range fleetHistograms {
		series := merged[fh.src]
		if len(series) == 0 {
			continue
		}
		w.Family(fh.dst)
		for _, hs := range series {
			w.Scraped(hs.Hist, hs.Values...)
		}
	}
}
