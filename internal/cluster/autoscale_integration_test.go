package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/serve"
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
