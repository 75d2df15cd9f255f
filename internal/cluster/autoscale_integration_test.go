package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// TestScaleToWidensAndNarrows drives the actuation path end to end over
// real backends: a router-registered model scales out to new ring owners
// (engines built before routing widens), serves correctly at the wider
// replica count, then scales back in with the surplus copies drained.
func TestScaleToWidensAndNarrows(t *testing.T) {
	f := startFleet(t, 5, nil, SetConfig{ProbeInterval: time.Hour})
	cfgJSON, err := graphio.MarshalConfig(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	regBody, err := json.Marshal(serve.RegisterRequest{Name: "live", Config: cfgJSON, Engines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := adminDo(t, http.MethodPost, f.url+"/v1/models", regBody); code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", code, body)
	}
	rt := f.router
	ctx := context.Background()

	hosting := func() map[string]bool {
		hosts := map[string]bool{}
		for id, reg := range f.regs {
			if _, ok := reg.Model("live"); ok {
				hosts[id] = true
			}
		}
		return hosts
	}
	assertHostedByPlacement := func(want int) {
		t.Helper()
		if got := rt.ReplicasFor("live"); got != want {
			t.Fatalf("ReplicasFor = %d, want %d", got, want)
		}
		owners := rt.Placement("live")
		if len(owners) != want {
			t.Fatalf("placement %v, want %d owners", owners, want)
		}
		hosts := hosting()
		if len(hosts) != want {
			t.Fatalf("%d backends host the model, want %d (hosts %v)", len(hosts), want, hosts)
		}
		for _, id := range owners {
			if !hosts[id] {
				t.Fatalf("intended owner %s does not host the model (hosts %v)", id, hosts)
			}
		}
	}
	assertHostedByPlacement(2)

	// Scale out 2 → 4: the two new owners get the cached register body.
	if _, err := rt.ScaleTo(ctx, "live", 4); err != nil {
		t.Fatal(err)
	}
	assertHostedByPlacement(4)
	if resp, body := f.post(t, "live", [][]float64{make([]float64, 16)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("inference at 4 replicas: status %d: %s", resp.StatusCode, body)
	}

	// Scale back in 4 → 2: the surplus owners drain and unregister; the
	// survivors are exactly the original placement prefix.
	if _, err := rt.ScaleTo(ctx, "live", 2); err != nil {
		t.Fatal(err)
	}
	assertHostedByPlacement(2)
	if resp, body := f.post(t, "live", [][]float64{make([]float64, 16)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("inference after scale-in: status %d: %s", resp.StatusCode, body)
	}

	// ScaleTo is clamped and idempotent: same count is a no-op.
	if res, err := rt.ScaleTo(ctx, "live", 2); err != nil || res != nil {
		t.Fatalf("no-op scale: res=%v err=%v", res, err)
	}
}

// TestScaleOutWithoutRegisterBodyFails: a model registered directly on the
// backends (bypassing the router) has no cached desired config, so the
// router must refuse to scale it out rather than register garbage.
func TestScaleOutWithoutRegisterBodyFails(t *testing.T) {
	f := startFleet(t, 4, []string{"direct"}, SetConfig{ProbeInterval: time.Hour})
	if _, err := f.router.ScaleTo(context.Background(), "direct", 3); err == nil {
		t.Fatal("scale-out without a cached register body must fail")
	}
}

// TestShedClassReturns429 pins the last-resort actuation: a shed class is
// refused router-side with 429 + Retry-After while other classes route
// normally, and clearing the shed restores service.
func TestShedClassReturns429(t *testing.T) {
	f := startFleet(t, 3, []string{"m"}, SetConfig{ProbeInterval: time.Hour})
	post := func(class string) int {
		t.Helper()
		body, err := json.Marshal(serve.InferRequest{Model: "m", Inputs: [][]float64{make([]float64, 16)}, Class: class})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(f.url+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed 429 must carry Retry-After")
		}
		return resp.StatusCode
	}
	f.router.setShed("m", "background")
	if code := post("background"); code != http.StatusTooManyRequests {
		t.Fatalf("shed class: status %d, want 429", code)
	}
	if code := post("interactive"); code != http.StatusOK {
		t.Fatalf("protected class during shed: status %d, want 200", code)
	}
	f.router.setShed("m", "")
	if code := post("background"); code != http.StatusOK {
		t.Fatalf("after unshed: status %d, want 200", code)
	}
	if f.router.Metrics().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", f.router.Metrics().Shed)
	}
}

// TestAutoscaleStatusEndpoint: disabled routers answer 404; enabled ones
// report the validated policy.
func TestAutoscaleStatusEndpoint(t *testing.T) {
	f := startFleet(t, 3, nil, SetConfig{ProbeInterval: time.Hour})
	if code, _ := adminDo(t, http.MethodGet, f.url+"/v1/autoscale", nil); code != http.StatusNotFound {
		t.Fatalf("autoscale disabled: status %d, want 404", code)
	}

	fa := startFleetOpts(t, 3, nil, SetConfig{ProbeInterval: time.Hour}, func(cfg *RouterConfig) {
		cfg.Autoscale = &autoscale.Policy{Interval: time.Hour} // loop armed but never fires
	})
	resp, err := http.Get(fa.url + "/v1/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("autoscale enabled: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/v1/autoscale: Content-Type %q, want application/json", ct)
	}
	var st AutoscaleStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Policy.ScaleUpP90 != autoscale.DefaultScaleUpP90 {
		t.Fatalf("status %+v: want enabled with defaulted policy", st)
	}
}

// TestAutoscaleLoopEndToEnd runs the replica control loop over six real
// backends in three zones, one evaluation at a time: the policy's
// hour-long interval keeps the loop's ticker silent, and the test calls
// cycle() itself once per simulated interval. Closed-loop clients run
// through every transition, and each reply is compared bit for bit with a
// direct engine. It checks, in order: a hot model scales out from real
// queue-wait pressure onto every zone; routed requests spread evenly over
// its replicas (each brings its own batcher, which is what cuts the hot
// model's tail); it scales back in after DownAfter low intervals; every
// model then holds its count for three intervals; an unmeetable SLO scales
// its model out within two intervals. No assertion reads the clock.
func TestAutoscaleLoopEndToEnd(t *testing.T) {
	const (
		hot, cold, probe = "hot", "cold", "probe"
		backends, zones  = 6, 3
		// The hot owner's engines are held for hold once the burst is
		// queued, so every queued row waits at least that long: twice the
		// scale-out threshold, and far above what an unheld fleet shows.
		hold       = 400 * time.Millisecond
		burstReqs  = 16
		burstRows  = 4
		spreadReqs = 30
	)
	pol := autoscale.Policy{
		Interval:     time.Hour, // never ticks: the test drives cycle()
		MinReplicas:  1,
		MaxStep:      2,
		Cooldown:     1,
		DownAfter:    2,
		ScaleUpP90:   hold / 2,
		ScaleDownP90: hold / 4,
	}
	objectives, err := slo.ParseObjectives([]string{probe + "::1us:99"})
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := map[string]string{}
	f := startFleetOpts(t, backends, nil, SetConfig{ProbeInterval: time.Hour}, func(cfg *RouterConfig) {
		cfg.Replicas = 1
		cfg.SLO = objectives
		cfg.Autoscale = &pol
		// Zones follow the hot model's plain ring order two owners at a
		// time, so its first three ring owners span only two zones: only a
		// zone-spreading placement puts three replicas in three zones.
		for i, id := range NewRing(DefaultVnodes).Add(cfg.Backends...).Owners(hot, backends) {
			zoneOf[id] = fmt.Sprintf("zone-%d", i/2)
		}
		cfg.Set.Zones = zoneOf
	})
	rt := f.router
	cfgJSON, err := graphio.MarshalConfig(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{hot, cold, probe} {
		body, err := json.Marshal(serve.RegisterRequest{Name: model, Config: cfgJSON, Engines: 1})
		if err != nil {
			t.Fatal(err)
		}
		if code, reply := adminDo(t, http.MethodPost, f.url+"/v1/models", body); code != http.StatusCreated {
			t.Fatalf("register %s: status %d: %s", model, code, reply)
		}
	}

	in, err := dataset.SparseBatch(16, 16, 4, 29)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.FromConfig(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, in.Rows())
	for r := range want {
		row, err := sparse.DenseFromSlice(1, in.Cols(), in.RowSlice(r))
		if err != nil {
			t.Fatal(err)
		}
		y, err := eng.Infer(row)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = slices.Clone(y.Data())
	}
	client := serve.Client{URL: f.url, HTTP: &http.Client{}}
	defer client.HTTP.CloseIdleConnections() // before the router's Shutdown
	// send routes n rows from row r on and returns the answering backend;
	// any status but 200 or any output bit that differs is an error.
	send := func(model string, r, n int) (string, error) {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = in.RowSlice((r + i) % in.Rows())
		}
		body, err := json.Marshal(serve.InferRequest{Model: model, Inputs: rows})
		if err != nil {
			return "", err
		}
		resp, err := client.Infer(context.Background(), body, "", "", 0)
		if err != nil {
			return "", fmt.Errorf("%s: %w", model, err)
		}
		backend := resp.Header.Get("X-Radix-Backend")
		var out serve.InferResponse
		if resp.StatusCode != http.StatusOK {
			return backend, fmt.Errorf("%s: status %d (%v)", model, resp.StatusCode, serve.DecodeReply(resp, nil))
		}
		if err := serve.DecodeReply(resp, &out); err != nil {
			return backend, fmt.Errorf("%s: %w", model, err)
		}
		if len(out.Outputs) != n {
			return backend, fmt.Errorf("%s: %d output rows, want %d", model, len(out.Outputs), n)
		}
		for i, got := range out.Outputs {
			exp := want[(r+i)%in.Rows()]
			if !slices.EqualFunc(got, exp, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				return backend, fmt.Errorf("%s row %d from %s diverges from the direct engine", model, (r+i)%in.Rows(), backend)
			}
		}
		return backend, nil
	}

	// Closed-loop clients: two on cold throughout, two on hot whenever
	// hotGate is free. Each hot request holds a read lock, so taking the
	// write lock waits out the ones in flight and pauses the rest.
	var (
		hotGate sync.RWMutex
		hotDone atomic.Int64
		stop    = make(chan struct{})
		clients sync.WaitGroup
	)
	hotGate.Lock()
	paused := true
	pause := func() { hotGate.Lock(); paused = true }
	resume := func() { paused = false; hotGate.Unlock() }
	defer func() {
		close(stop)
		if paused {
			resume()
		}
		clients.Wait()
	}()
	for c, model := range []string{cold, cold, hot, hot} {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if model == hot {
					hotGate.RLock()
				}
				_, err := send(model, i, 1)
				if model == hot {
					hotGate.RUnlock()
					hotDone.Add(1)
				}
				if err != nil {
					t.Errorf("closed-loop client: %v", err)
				}
			}
		}()
	}
	// hotLoad lets the hot clients complete n more requests, so the next
	// cycle's window holds them and they run through its actuation.
	hotLoad := func(n int64) {
		t.Helper()
		target := hotDone.Load() + n
		waitFor(t, "hot-model client traffic", func() bool { return hotDone.Load() >= target })
	}
	status := func() AutoscaleStatus {
		t.Helper()
		var st AutoscaleStatus
		if err := client.GetJSON(context.Background(), "/v1/autoscale", &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Scale-out. Every engine of hot's one owner is leased away while a
	// burst queues behind it.
	owner := rt.Placement(hot)[0]
	m, _ := f.regs[owner].Model(hot)
	engines, _ := m.PoolStats()
	held := make([]*infer.Engine, engines)
	for i := range held {
		held[i] = m.Lease()
	}
	var burst sync.WaitGroup
	for i := range burstReqs {
		burst.Add(1)
		go func() {
			defer burst.Done()
			if _, err := send(hot, i*burstRows, burstRows); err != nil {
				t.Errorf("burst: %v", err)
			}
		}()
	}
	waitFor(t, "the burst to queue", func() bool { return m.Metrics().Snapshot().Accepted >= burstReqs*burstRows })
	time.Sleep(hold)
	for _, e := range held {
		m.Release(e)
	}
	burst.Wait()
	resume()
	hotLoad(8)
	rt.scaler.cycle()
	if got := rt.ReplicasFor(hot); got != 1+pol.MaxStep {
		t.Fatalf("hot model at %d replicas after a held-engine burst, want %d (status %+v)", got, 1+pol.MaxStep, status().Models)
	}
	spanned := map[string]bool{}
	for _, id := range rt.Placement(hot) {
		spanned[zoneOf[id]] = true
	}
	if want := min(rt.ReplicasFor(hot), zones); len(spanned) != want {
		t.Fatalf("hot model's %d replicas %v span %d zones, want %d", rt.ReplicasFor(hot), rt.Placement(hot), len(spanned), want)
	}

	// Spread: with the hot clients paused, sequential requests take turns
	// over the replicas.
	pause()
	landed := map[string]int{}
	for i := range spreadReqs {
		backend, err := send(hot, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		landed[backend]++
	}
	replicas := rt.Placement(hot)
	for _, id := range replicas {
		if k, n := landed[id], len(replicas); k*n < spreadReqs-n || k*n > spreadReqs+n {
			t.Fatalf("%d sequential requests landed %v: replica %s took %d, want %d ± 1", spreadReqs, landed, id, k, spreadReqs/n)
		}
	}
	resume()

	// Scale-in after DownAfter low intervals, clients still running.
	for range pol.DownAfter {
		hotLoad(8)
		rt.scaler.cycle()
	}
	if got := rt.ReplicasFor(hot); got != pol.MinReplicas {
		t.Fatalf("hot model at %d replicas after %d low intervals, want %d (status %+v)", got, pol.DownAfter, pol.MinReplicas, status().Models)
	}

	// Convergence: every model holds its count for three intervals.
	for range 3 {
		hotLoad(8)
		rt.scaler.cycle()
	}
	st := status()
	for _, model := range []string{hot, cold} {
		if !slices.ContainsFunc(st.Models, func(ms autoscale.ModelStatus) bool { return ms.Model == model }) {
			t.Fatalf("/v1/autoscale lists no %s: %+v", model, st.Models)
		}
	}
	for _, ms := range st.Models {
		if ms.StableIntervals < 3 {
			t.Fatalf("%s stable for %d intervals, want >= 3 (status %+v)", ms.Model, ms.StableIntervals, st.Models)
		}
	}

	// SLO: probe's 1µs objective is unmeetable, so its first traffic
	// violates it, and the loop must scale it out within two intervals.
	for i := range 8 {
		if _, err := send(probe, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	var scaled *AppliedDecision
	for c := 0; c < 2 && scaled == nil; c++ {
		rt.scaler.cycle()
		for _, d := range status().Recent {
			if d.Model == probe && d.To > d.From && strings.Contains(d.Reason, "slo") {
				scaled = &d
				break
			}
		}
	}
	if scaled == nil {
		t.Fatalf("violated SLO did not scale %s out within two intervals (status %+v)", probe, status())
	}
	if scaled.Error != "" {
		t.Fatalf("SLO scale-out of %s failed: %s", probe, scaled.Error)
	}
}
