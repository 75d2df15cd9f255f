package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
)

func TestInjectBackendLabelExemplarSafe(t *testing.T) {
	cases := []struct{ in, want string }{
		// The exemplar's own braces must not be mistaken for the series
		// label block.
		{`lat_bucket{model="m",le="0.001"} 5 # {trace_id="abc"} 0.0005`,
			`lat_bucket{model="m",le="0.001",backend="b:1"} 5 # {trace_id="abc"} 0.0005`},
		{`requests_total 3 # {trace_id="x"} 1`,
			`requests_total{backend="b:1"} 3 # {trace_id="x"} 1`},
		{`lat_bucket{le="1"} 2`,
			`lat_bucket{le="1",backend="b:1"} 2`},
		{`plain 7`,
			`plain{backend="b:1"} 7`},
	}
	for _, tc := range cases {
		if got := relabel(tc.in, "b:1"); got != tc.want {
			t.Errorf("relabel(%q)\n got %q\nwant %q", tc.in, got, tc.want)
		}
	}
}

// backendScrape fabricates one backend's /metrics exposition with known
// latency buckets, exemplars, and outcome counters for model "m".
func backendScrape(good, slow, accepted, rejected, failed, expired int, exemplar string) string {
	var b strings.Builder
	cum1 := good
	cum2 := good + slow
	write := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	write(`radixserve_request_latency_seconds_bucket{model="m",le="0.01"} %d`, cum1)
	if exemplar != "" {
		write(`radixserve_request_latency_seconds_bucket{model="m",le="1"} %d # {trace_id="%s"} 0.5`, cum2, exemplar)
	} else {
		write(`radixserve_request_latency_seconds_bucket{model="m",le="1"} %d`, cum2)
	}
	write(`radixserve_request_latency_seconds_bucket{model="m",le="+Inf"} %d`, cum2)
	write(`radixserve_request_latency_seconds_sum{model="m"} %g`, float64(cum2)*0.01)
	write(`radixserve_request_latency_seconds_count{model="m"} %d`, cum2)
	write(`radixserve_rows_accepted_total{model="m"} %d`, accepted)
	write(`radixserve_rows_rejected_total{model="m"} %d`, rejected)
	write(`radixserve_rows_failed_total{model="m"} %d`, failed)
	write(`radixserve_rows_expired_total{model="m"} %d`, expired)
	write(`radixserve_class_request_latency_seconds_bucket{model="m",class="interactive",le="0.01"} %d`, cum1)
	write(`radixserve_class_request_latency_seconds_bucket{model="m",class="interactive",le="+Inf"} %d`, cum1)
	write(`radixserve_class_request_latency_seconds_count{model="m",class="interactive"} %d`, cum1)
	write(`radixserve_class_rows_accepted_total{model="m",class="interactive"} %d`, accepted)
	write(`radixserve_class_rows_rejected_total{model="m",class="interactive"} %d`, rejected)
	write(`radixserve_class_rows_expired_total{model="m",class="interactive"} %d`, expired)
	return b.String()
}

func TestCollectFleetSLOSamples(t *testing.T) {
	scrapes := []*obs.Scrape{
		obs.ParseScrape(backendScrape(10, 2, 12, 1, 1, 0, "aaaa")),
		obs.ParseScrape(backendScrape(20, 3, 23, 2, 0, 1, "bbbb")),
		nil, // a failed backend scrape must be skipped, not crash
	}
	samples := collectFleetSLOSamples(scrapes, mergeFleet(scrapes))
	if len(samples) != 2 {
		t.Fatalf("%d samples, want 2 (aggregate + interactive): %+v", len(samples), samples)
	}
	agg := samples[0]
	if agg.model != "m" || agg.class != "" {
		t.Fatalf("first sample %+v, want the aggregate", agg)
	}
	// Bucket-wise sums across both live backends.
	if agg.sample.Hist.Count != 35 {
		t.Errorf("merged count %d, want 35", agg.sample.Hist.Count)
	}
	if got := agg.sample.Hist.CountBelow(0.01); got != 30 {
		t.Errorf("merged good-at-10ms %g, want 30", got)
	}
	// Aggregate accounting: failed+expired+rejected over accepted+rejected.
	if agg.sample.Bad != 5 || agg.sample.Total != 38 {
		t.Errorf("aggregate bad/total = %d/%d, want 5/38", agg.sample.Bad, agg.sample.Total)
	}
	cls := samples[1]
	if cls.class != "interactive" {
		t.Fatalf("second sample %+v, want class interactive", cls)
	}
	// Class accounting has no failed series: expired+rejected only.
	if cls.sample.Bad != 4 || cls.sample.Total != 38 {
		t.Errorf("class bad/total = %d/%d, want 4/38", cls.sample.Bad, cls.sample.Total)
	}
	if cls.sample.Hist.Count != 30 {
		t.Errorf("class merged count %d, want 30", cls.sample.Hist.Count)
	}
}

func TestFleetMergeCarriesExemplars(t *testing.T) {
	scrapes := []*obs.Scrape{obs.ParseScrape(backendScrape(10, 2, 12, 0, 0, 0, "cafe1234cafe1234cafe1234cafe1234"))}
	var out obs.Writer
	writeFleetHistograms(&out, mergeFleet(scrapes))
	text := string(out.Bytes())
	if !strings.Contains(text, `radixrouter_model_request_latency_seconds_bucket{model="m",le="1"} 12 # {trace_id="cafe1234cafe1234cafe1234cafe1234"} 0.5`) {
		t.Fatalf("merged exposition lost the exemplar:\n%s", text)
	}
}

func TestRouterSLOUnconfigured(t *testing.T) {
	f := startFleet(t, 2, []string{"m"}, SetConfig{ProbeInterval: time.Hour})
	resp, err := http.Get(f.url + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/slo with no objectives: status %d, want 404", resp.StatusCode)
	}
}

// TestRouterSLOViolation arms an unmeetable objective on the router and
// checks the fleet-evaluated /v1/slo flips to violated, with the
// radixrouter_slo_* gauges riding the merged /metrics exposition.
func TestRouterSLOViolation(t *testing.T) {
	objectives, err := slo.ParseObjectives([]string{"m::1us:99"})
	if err != nil {
		t.Fatal(err)
	}
	f := startFleetOpts(t, 2, []string{"m"}, SetConfig{ProbeInterval: time.Hour}, func(rc *RouterConfig) {
		rc.SLO = objectives
	})
	in, err := dataset.SparseBatch(1, 16, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if resp, body := f.post(t, "m", [][]float64{in.RowSlice(0)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(f.url + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/slo: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/slo: Content-Type %q, want application/json", ct)
	}
	var view slo.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	var st *slo.Status
	for i := range view.Statuses {
		if view.Statuses[i].Model == "m" && view.Statuses[i].Class == "" {
			st = &view.Statuses[i]
		}
	}
	if st == nil {
		t.Fatalf("no aggregate status for m: %+v", view.Statuses)
	}
	if st.State != slo.StateViolated {
		t.Fatalf("unmeetable objective state %q (fast %g slow %g), want violated", st.State, st.FastBurn, st.SlowBurn)
	}
	if !strings.Contains(scrapeText(t, f.url+"/metrics"), `radixrouter_slo_state{objective="`) {
		t.Fatal("radixrouter_slo_state missing from the merged /metrics exposition")
	}
}

// TestFleetSeesHostileModelName is the regression for a legal model name
// making a model invisible to the fleet: names are client-chosen, and one
// holding " # ", braces, quotes and a backslash used to defeat the
// exemplar split — no backend label (so two backends emitted duplicate
// series), nothing merged, no SLO sample, no autoscale signal.
func TestFleetSeesHostileModelName(t *testing.T) {
	const name = `a # {b}="c\`
	objectives, err := slo.ParseObjectives([]string{"*::1us:99"})
	if err != nil {
		t.Fatal(err)
	}
	f := startFleetOpts(t, 2, []string{name}, SetConfig{ProbeInterval: time.Hour}, func(rc *RouterConfig) {
		rc.SLO = objectives
		rc.Autoscale = &autoscale.Policy{Interval: time.Hour} // armed, never fires: the test runs one cycle itself
	})
	const n = 6
	for i := 0; i < n; i++ {
		if resp, body := f.post(t, name, [][]float64{make([]float64, 16)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	sc := obs.ParseScrape(scrapeText(t, f.url+"/metrics"))
	if err := sc.Check(); err != nil {
		t.Fatalf("merged exposition: %v", err)
	}
	model := []obs.Label{{Name: "model", Value: name}}
	// Every backend's own series is relayed under its backend label.
	perBackend := obs.MergeHist(serve.MetricRequestLatency, []string{"backend"}, model, sc)
	if len(perBackend) != 2 {
		t.Fatalf("%d backend-labelled latency series for the model, want 2", len(perBackend))
	}
	// The fleet-merged family holds exactly the per-backend sum, bucket by bucket.
	merged := obs.MergeHist(MetricModelRequestLatency, nil, model, sc)
	if len(merged) != 1 || merged[0].Hist.Count != n {
		t.Fatalf("fleet-merged latency = %+v, want one series of count %d", merged, n)
	}
	for i, cum := range merged[0].Hist.Cum {
		if sum := perBackend[0].Hist.Cum[i] + perBackend[1].Hist.Cum[i]; cum != sum {
			t.Fatalf("merged bucket le=%g holds %d, backends sum to %d", merged[0].Hist.Les[i], cum, sum)
		}
	}

	var view slo.View
	if err := json.Unmarshal([]byte(scrapeText(t, f.url+"/v1/slo")), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Statuses) != 1 || view.Statuses[0].Model != name || view.Statuses[0].FastTotal != n {
		t.Fatalf("SLO statuses %+v, want one for the model over %d rows", view.Statuses, n)
	}

	f.router.scaler.cycle()
	var st AutoscaleStatus
	if err := json.Unmarshal([]byte(scrapeText(t, f.url+"/v1/autoscale")), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Models) != 1 || st.Models[0].Model != name || st.Models[0].Samples != n {
		t.Fatalf("autoscale signals %+v, want the model with %d queue-wait samples", st.Models, n)
	}
}
