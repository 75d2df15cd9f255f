// Package selftest is the one end-to-end acceptance harness of the serving
// stack. Its go tests boot a radixserve node and a radixrouter in front of a
// three-node fleet on ephemeral ports and drive both over real HTTP with the
// same phases: a node and a router expose the same API, so a phase is
// written once against a Target and runs unchanged against either tier.
// The exported helpers are what `radixrouter -selftest` also uses for its
// autoscale phase, the one scenario that needs tens of seconds of wall clock.
//
// The harness asserts behaviour only. Performance is recorded by the
// repository's benchmark (BENCHMARK.json, radixbench/), never by a selftest.
package selftest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
)

// Target is one tier under test: the client for a radixserve node or a
// radixrouter (they speak the same API), the model a phase drives on it,
// and the two exported histogram families whose names differ by tier.
// Acceptance assertions read p99s back from these families on /metrics —
// the data an operator's dashboard sees — not from internal tallies.
type Target struct {
	serve.Client
	Model string
	// LatencyFamily buckets per-model request latency, QueueWaitFamily
	// per-model×class scheduler queue wait.
	LatencyFamily   *obs.Family
	QueueWaitFamily *obs.Family
}

// Routed targets a radixrouter, which re-exports its backends' histograms
// summed bucket-wise as the fleet-merged radixrouter_model_* families.
func Routed(client *http.Client, url, model string) Target {
	return Target{Client: serve.Client{URL: url, HTTP: client}, Model: model,
		LatencyFamily:   cluster.MetricModelRequestLatency,
		QueueWaitFamily: cluster.MetricModelQueueWait}
}

// For returns the same target driving another model.
func (t Target) For(model string) Target {
	t.Model = model
	return t
}

// NewClient is tuned for many concurrent keep-alive connections to one
// host.
func NewClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 128
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// post sends one pre-marshaled /v1/infer body, with an explicit
// X-Radix-Trace-Id when traceID is non-empty, and returns the HTTP status
// and response headers. A 200 body is decoded into out; with out nil, and
// for every other status, the body is drained so the connection is reused.
func post(ctx context.Context, t Target, body []byte, traceID string, out *serve.InferResponse) (int, http.Header, error) {
	resp, err := t.Infer(ctx, body, traceID, "", 0)
	if err != nil {
		return 0, nil, err
	}
	var into any
	if resp.StatusCode == http.StatusOK && out != nil {
		into = out
	}
	return resp.StatusCode, resp.Header, serve.DecodeReply(resp, into)
}

// PostBody posts a pre-marshaled inference request and returns the HTTP
// status, the answering backend id (the router's X-Radix-Backend header;
// empty against a single node) and the decoded response (valid only for
// status 200).
func PostBody(ctx context.Context, t Target, body []byte) (int, string, serve.InferResponse, error) {
	var out serve.InferResponse
	status, hdr, err := post(ctx, t, body, "", &out)
	return status, hdr.Get("X-Radix-Backend"), out, err
}

// Register registers the target's model over the wire from graphio config
// JSON (POST /v1/models must answer 201) and returns the request body, which
// PUT /v1/models/{name} accepts again as a hot-reload.
func Register(ctx context.Context, t Target, cfg core.Config, engines int) ([]byte, error) {
	cfgJSON, err := graphio.MarshalConfig(cfg)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.RegisterRequest{Name: t.Model, Config: cfgJSON, Engines: engines})
	if err != nil {
		return nil, err
	}
	if status, err := t.Client.Register(ctx, body); err != nil || status != http.StatusCreated {
		return nil, fmt.Errorf("register %s: status %d err %v", t.Model, status, err)
	}
	return body, nil
}

// Oracle computes the per-row ground truth: every row of in pushed alone
// through a private engine over cfg. Engine generation is deterministic, so
// its weights match every served pool built from the same config.
func Oracle(cfg core.Config, in *sparse.Dense) ([][]float64, error) {
	ref, err := infer.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	expected := make([][]float64, in.Rows())
	for r := range expected {
		rowIn, err := sparse.DenseFromSlice(1, in.Cols(), in.RowSlice(r))
		if err != nil {
			return nil, err
		}
		y, err := ref.Infer(rowIn)
		if err != nil {
			return nil, err
		}
		expected[r] = append([]float64(nil), y.Data()...)
	}
	return expected, nil
}

// Fleet is n in-process radixserve nodes on ephemeral ports, booted empty:
// models are registered once a router's ring decides who owns what. Regs
// and Srvs are keyed by the bound address, which is also the backend id a
// router reports.
type Fleet struct {
	Addrs []string
	Regs  map[string]*serve.Registry
	Srvs  map[string]*serve.Server
}

// StartFleet boots the nodes. On error the nodes already started are shut
// down.
func StartFleet(ctx context.Context, n int, pol serve.Policy, opts serve.ServerOptions) (*Fleet, error) {
	f := &Fleet{Regs: make(map[string]*serve.Registry, n), Srvs: make(map[string]*serve.Server, n)}
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry(pol)
		srv := serve.NewServerOpts(reg, "127.0.0.1:0", opts)
		addr, err := srv.Start()
		if err != nil {
			f.Shutdown(ctx)
			return nil, err
		}
		f.Regs[addr] = reg
		f.Srvs[addr] = srv
		f.Addrs = append(f.Addrs, addr)
	}
	return f, nil
}

// Shutdown drains every node, best effort (a node a phase already killed
// shuts down twice harmlessly).
func (f *Fleet) Shutdown(ctx context.Context) {
	for _, srv := range f.Srvs {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_ = srv.Shutdown(sctx) // best-effort teardown
		cancel()
	}
}
