package selftest

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

func TestPercentile(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = 100 - i // unsorted on purpose: 100, 99, …, 1
	}
	for _, tc := range []struct {
		name string
		lat  []time.Duration
		p    int
		want time.Duration
	}{
		{"single", ms(7), 99, 7 * time.Millisecond},
		{"median of three", ms(30, 10, 20), 50, 20 * time.Millisecond},
		{"p0 is the minimum", ms(30, 10, 20), 0, 10 * time.Millisecond},
		{"p100 clamps to the maximum", ms(30, 10, 20), 100, 30 * time.Millisecond},
		{"p99 of 1..100", ms(hundred...), 99, 100 * time.Millisecond},
		{"p50 of 1..100", ms(hundred...), 50, 51 * time.Millisecond},
	} {
		if got := percentile(tc.lat, tc.p); got != tc.want {
			t.Errorf("%s: percentile(p=%d) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	in := ms(3, 1, 2)
	percentile(in, 50)
	if !reflect.DeepEqual(in, ms(3, 1, 2)) {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

// Two scrapes of one exposition: the latency family has model a (with
// exemplar-annotated bucket lines) and model b; the queue-wait family
// exists only in the second scrape. lat and wait stand for the serve
// tier's family names.
var (
	scrapeBefore = fixture(`# TYPE lat histogram
lat_bucket{model="a",le="0.001"} 2 # {trace_id="aaaa0000aaaa0000aaaa0000aaaa0000"} 0.0007
lat_bucket{model="a",le="0.002"} 3
lat_bucket{model="a",le="+Inf"} 3
lat_sum{model="a"} 0.004
lat_count{model="a"} 3
lat_bucket{model="b",le="0.001"} 1
lat_bucket{model="b",le="0.002"} 1
lat_bucket{model="b",le="+Inf"} 1
lat_sum{model="b"} 0.0005
lat_count{model="b"} 1
`)
	scrapeAfter = fixture(`# TYPE lat histogram
lat_bucket{model="a",le="0.001"} 4 # {trace_id="bbbb0000bbbb0000bbbb0000bbbb0000"} 0.0009
lat_bucket{model="a",le="0.002"} 9 # {trace_id="cccc0000cccc0000cccc0000cccc0000"} 0.0015
lat_bucket{model="a",le="+Inf"} 9
lat_sum{model="a"} 0.012
lat_count{model="a"} 9
lat_bucket{model="b",le="0.001"} 1
lat_bucket{model="b",le="0.002"} 5
lat_bucket{model="b",le="+Inf"} 5
lat_sum{model="b"} 0.006
lat_count{model="b"} 5
wait_bucket{model="a",class="interactive",le="0.001"} 7
wait_bucket{model="a",class="interactive",le="+Inf"} 7
wait_sum{model="a",class="interactive"} 0.003
wait_count{model="a",class="interactive"} 7
`)
	lat, wait = serve.MetricRequestLatency, serve.MetricQueueWait
)

func fixture(text string) *obs.Scrape {
	text = strings.ReplaceAll(text, "lat", lat.Name())
	return obs.ParseScrape(strings.ReplaceAll(text, "wait", wait.Name()))
}

func TestExemplarTraceIDs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scrape *obs.Scrape
		family *obs.Family
		model  string
		want   []string
	}{
		{"one annotated bucket", scrapeBefore, lat, "a", []string{"aaaa0000aaaa0000aaaa0000aaaa0000"}},
		{"every annotated bucket of the model, in order", scrapeAfter, lat, "a",
			[]string{"bbbb0000bbbb0000bbbb0000bbbb0000", "cccc0000cccc0000cccc0000cccc0000"}},
		{"no annotations", scrapeBefore, lat, "b", nil},
		{"missing family", scrapeBefore, wait, "a", nil},
	} {
		if got := exemplarTraceIDs(tc.scrape, tc.family, tc.model); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHistWindow(t *testing.T) {
	model := func(m string) obs.Label { return obs.Label{Name: "model", Value: m} }
	for _, tc := range []struct {
		name    string
		family  *obs.Family
		want    []obs.Label
		count   uint64
		cum     []uint64 // windowed cumulative counts at le 0.001, 0.002
		missing bool
	}{
		// The exemplar annotations on a's bucket lines must not disturb the counts.
		{name: "one model", family: lat, want: []obs.Label{model("a")}, count: 6, cum: []uint64{2, 6}},
		{name: "other model", family: lat, want: []obs.Label{model("b")}, count: 4, cum: []uint64{0, 4}},
		{name: "no filter merges every label set", family: lat, count: 10, cum: []uint64{2, 10}},
		{name: "family absent before: the window is the after scrape", family: wait,
			want: []obs.Label{model("a"), {Name: "class", Value: "interactive"}}, count: 7, cum: []uint64{7}},
		{name: "label set absent after", family: lat, want: []obs.Label{model("c")}, missing: true},
		{name: "family absent after", family: serve.MetricExecute, missing: true},
	} {
		win, err := histWindow(scrapeBefore, scrapeAfter, tc.family, tc.want...)
		if tc.missing {
			if err == nil {
				t.Errorf("%s: no error for a family missing from the after scrape", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if win.Count != tc.count || !reflect.DeepEqual(win.Cum, tc.cum) {
			t.Errorf("%s: window count %d cum %v, want %d %v", tc.name, win.Count, win.Cum, tc.count, tc.cum)
		}
	}
	// All six of a's windowed observations sit at or below 2ms.
	win, _ := histWindow(scrapeBefore, scrapeAfter, lat, model("a"))
	if p99 := win.Quantile(0.99); p99 <= 0.001 || p99 > 0.002 {
		t.Errorf("windowed p99 %v outside (0.001, 0.002]", p99)
	}
}

// smokeModel is the model, inputs and per-row oracle both smokes share:
// radix [4,4,4] → width 64, 3 layers, 16 sparse rows.
func smokeModel(t *testing.T) (core.Config, *sparse.Dense, [][]float64) {
	t.Helper()
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(4, 4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	width := cfg.LayerWidths()[0]
	in, err := dataset.SparseBatch(16, width, width/10, 7)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := Oracle(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, in, expected
}

// sloObjectives arms the loose and the unmeetable objective
// exemplarSLOPhase expects on model.
func sloObjectives(t *testing.T, model string) []slo.Objective {
	t.Helper()
	objectives, err := slo.ParseObjectives([]string{model + "::10s:50", model + "::1us:99"})
	if err != nil {
		t.Fatal(err)
	}
	return objectives
}

// TestSmokeNode boots one radixserve node and runs every node-tier
// acceptance phase against it over HTTP.
func TestSmokeNode(t *testing.T) {
	ctx := t.Context()
	cfg, in, expected := smokeModel(t)
	fleet, err := StartFleet(ctx, 1, serve.Policy{MaxBatch: 32, MaxLatency: time.Millisecond},
		serve.ServerOptions{Pprof: true, SLO: sloObjectives(t, "smoke")})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Shutdown(ctx)
	addr := fleet.Addrs[0]
	reg := fleet.Regs[addr]
	// Profile every engine batch: profilePhase checks the per-layer tallies
	// against the batches it sent, so no batch may be skipped.
	reg.SetProfileEvery(1)
	if _, err := reg.Register("smoke", cfg, 2); err != nil {
		t.Fatal(err)
	}
	tg := node(NewClient(), "http://"+addr, "smoke")
	defer tg.HTTP.CloseIdleConnections() // before Shutdown: see TestSmokeFleet

	bitIdentityPhase(t, tg, in, expected, nil)
	concurrencyPhase(t, tg, []string{tg.Model}, in, expected)
	live := tg.For("live")
	controlPlanePhase(t, live, cfg, 2, in, expected, nil)
	infos, err := live.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(infos, func(info serve.ModelInfo) bool { return info.Name == live.Model })
	if i < 0 || infos[i].Generation != 1+reloads {
		t.Fatalf("GET /v1/models: model %q at index %d of %+v, want generation %d", live.Model, i, infos, 1+reloads)
	}
	unregisterPhase(t, live, in.RowSlice(0))
	smoke, _ := reg.Model("smoke")
	qosPhase(t, tg, []*serve.Model{smoke}, in, expected)
	obsPhase(t, tg, in.RowSlice(0))
	exemplarSLOPhase(t, tg, in)
	profilePhase(t, tg.For("profiled"), reg, cfg)
}

// TestSmokeFleet boots three backends behind a router and runs the same
// phases through it, with routing pinned to each model's ring owners, then
// the router's own: ring-exact control-plane fan-out, stitched traces,
// backend engine profiles in the merged exposition, and a backend killed
// mid-load.
func TestSmokeFleet(t *testing.T) {
	ctx := t.Context()
	cfg, in, expected := smokeModel(t)
	fleet, err := StartFleet(ctx, 3, serve.Policy{MaxBatch: 32, MaxLatency: time.Millisecond}, serve.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Shutdown(ctx)
	for _, reg := range fleet.Regs {
		// Profile every engine batch so the merged /metrics exposition
		// carries radixserve_engine_gedges_per_sec for engineProfilePhase.
		reg.SetProfileEvery(1)
	}
	models := []string{"shard-0", "shard-1"}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Addr:       "127.0.0.1:0",
		Backends:   fleet.Addrs,
		Replicas:   2,
		MaxBackoff: 100 * time.Millisecond,
		Pprof:      true,
		SLO:        sloObjectives(t, models[0]),
		Set:        cluster.SetConfig{ProbeInterval: 100 * time.Millisecond, FailAfter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		for _, id := range rt.Placement(model) {
			if _, err := fleet.Regs[id].Register(model, cfg, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	bound, err := rt.Start()
	if err != nil {
		t.Fatal(err)
	}
	tg := Routed(NewClient(), "http://"+bound, models[0])
	defer func() {
		// A connection the client dialed and never used is StateNew on the
		// router, and http.Server.Shutdown waits up to 5 s before it closes
		// one; with load from several workers, 1 of 12 runs without this left
		// one behind. Closing the client's idle connections first closes
		// it, and any dial that lands afterwards too.
		tg.HTTP.CloseIdleConnections()
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(sctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	}()

	for _, model := range models {
		bitIdentityPhase(t, tg.For(model), in, expected, rt.Placement(model))
	}
	concurrencyPhase(t, tg, models, in, expected)
	live := tg.For("live")
	owners := rt.Placement(live.Model)
	controlPlanePhase(t, live, cfg, 1, in, expected, owners)
	// The fan-out verdicts: exactly the ring owners host the model, and a
	// fleet-wide reload reached every one of them each time.
	for id, reg := range fleet.Regs {
		m, has := reg.Model(live.Model)
		if has != slices.Contains(owners, id) {
			t.Fatalf("control plane: backend %s hosts=%v, want placement %v", id, has, owners)
		}
		if has && m.Generation() != 1+reloads {
			t.Fatalf("control plane: backend %s at generation %d after %d fleet reloads, want %d",
				id, m.Generation(), reloads, 1+reloads)
		}
	}
	unregisterPhase(t, live, in.RowSlice(0))
	var serving []*serve.Model
	for _, id := range rt.Placement(models[1]) {
		m, _ := fleet.Regs[id].Model(models[1])
		serving = append(serving, m)
	}
	qosPhase(t, tg.For(models[1]), serving, in, expected)
	stitchedTracePhase(t, obsPhase(t, tg, in.RowSlice(0)))
	exemplarSLOPhase(t, tg, in)
	engineProfilePhase(t, tg)
	// Last: it kills one of the backends.
	failoverPhase(t, tg, rt, fleet, in, expected)
}
