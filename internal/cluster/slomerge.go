package cluster

import (
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
)

// fleetSLOSample is one fleet-merged cumulative series for the router's
// SLO engine: class "" is the per-model aggregate.
type fleetSLOSample struct {
	model, class string
	sample       slo.Sample
}

// collectFleetSLOSamples folds backend scrapes into cumulative SLO
// samples: the per-model aggregate latency family plus row-outcome
// counters, and the per-model×class family likewise, counted by
// slo.Outcome as the serve tier counts its own. The latency families are
// read from merged, the same round's mergeFleet of the scrapes.
// Aggregates come first; the SLO engine keys samples by model and class,
// so no other order is kept.
func collectFleetSLOSamples(scrapes []*obs.Scrape, merged fleetMerge) []fleetSLOSample {
	byModel, byClass := MetricModelRequestLatency.Labels(), metricModelClassRequestLatency.Labels()
	var out []fleetSLOSample
	accepted := obs.SumCounter(serve.MetricRowsAccepted, byModel, scrapes...)
	rejected := obs.SumCounter(serve.MetricRowsRejected, byModel, scrapes...)
	failed := obs.SumCounter(serve.MetricRowsFailed, byModel, scrapes...)
	expired := obs.SumCounter(serve.MetricRowsExpired, byModel, scrapes...)
	for _, hs := range merged[serve.MetricRequestLatency] {
		k := hs.Key
		out = append(out, fleetSLOSample{model: hs.Values[0],
			sample: slo.Outcome(hs.Hist, accepted[k], rejected[k], failed[k], expired[k])})
	}
	accepted = obs.SumCounter(serve.MetricClassRowsAccepted, byClass, scrapes...)
	rejected = obs.SumCounter(serve.MetricClassRowsRejected, byClass, scrapes...)
	expired = obs.SumCounter(serve.MetricClassRowsExpired, byClass, scrapes...)
	for _, hs := range merged[serve.MetricClassRequestLatency] {
		k := hs.Key
		out = append(out, fleetSLOSample{model: hs.Values[1], class: hs.Values[0],
			sample: slo.Outcome(hs.Hist, accepted[k], rejected[k], 0, expired[k])})
	}
	return out
}
