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

// target is one tier under test: the client for a radixserve node or a
// radixrouter (they speak the same API), the model a phase drives on it,
// and the two exported histogram families whose names differ by tier.
// Acceptance assertions read p99s back from these families on /metrics —
// the data an operator's dashboard sees — not from internal tallies.
type target struct {
	serve.Client
	model string
	// latencyFamily buckets per-model request latency, queueWaitFamily
	// per-model×class scheduler queue wait.
	latencyFamily   *obs.Family
	queueWaitFamily *obs.Family
}

// routed targets a radixrouter, which re-exports its backends' histograms
// summed bucket-wise as the fleet-merged radixrouter_model_* families.
func routed(client *http.Client, url, model string) target {
	return target{Client: serve.Client{URL: url, HTTP: client}, model: model,
		latencyFamily:   cluster.MetricModelRequestLatency,
		queueWaitFamily: cluster.MetricModelQueueWait}
}

// forModel returns the same target driving another model.
func (t target) forModel(model string) target {
	t.model = model
	return t
}

// newClient is tuned for many concurrent keep-alive connections to one
// host.
func newClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 128
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// post sends one pre-marshaled /v1/infer body, with an explicit
// X-Radix-Trace-Id when traceID is non-empty, and returns the HTTP status
// and response headers. A 200 body is decoded into out; with out nil, and
// for every other status, the body is drained so the connection is reused.
func post(ctx context.Context, t target, body []byte, traceID string, out *serve.InferResponse) (int, http.Header, error) {
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

// register registers the target's model over the wire from graphio config
// JSON (POST /v1/models must answer 201) and returns the request body, which
// PUT /v1/models/{name} accepts again as a hot-reload.
func register(ctx context.Context, t target, cfg core.Config, engines int) ([]byte, error) {
	cfgJSON, err := graphio.MarshalConfig(cfg)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.RegisterRequest{Name: t.model, Config: cfgJSON, Engines: engines})
	if err != nil {
		return nil, err
	}
	if status, err := t.Client.Register(ctx, body); err != nil || status != http.StatusCreated {
		return nil, fmt.Errorf("register %s: status %d err %v", t.model, status, err)
	}
	return body, nil
}

// oracle computes the per-row ground truth: every row of in pushed alone
// through a private engine over cfg. Engine generation is deterministic, so
// its weights match every served pool built from the same config.
func oracle(cfg core.Config, in *sparse.Dense) ([][]float64, error) {
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

// nodeFleet is n in-process radixserve nodes on ephemeral ports, booted
// empty: models are registered once a router's ring decides who owns what.
// regs and srvs are keyed by the bound address, which is also the backend id a
// router reports.
type nodeFleet struct {
	addrs []string
	regs  map[string]*serve.Registry
	srvs  map[string]*serve.Server
}

// startFleet boots the nodes. On error the nodes already started are shut
// down.
func startFleet(ctx context.Context, n int, pol serve.Policy, opts serve.ServerOptions) (*nodeFleet, error) {
	f := &nodeFleet{regs: make(map[string]*serve.Registry, n), srvs: make(map[string]*serve.Server, n)}
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry(pol)
		srv := serve.NewServerOpts(reg, "127.0.0.1:0", opts)
		addr, err := srv.Start()
		if err != nil {
			f.shutdown(ctx)
			return nil, err
		}
		f.regs[addr] = reg
		f.srvs[addr] = srv
		f.addrs = append(f.addrs, addr)
	}
	return f, nil
}

// shutdown drains every node, best effort (a node a phase already killed
// shuts down twice harmlessly).
func (f *nodeFleet) shutdown(ctx context.Context) {
	for _, srv := range f.srvs {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_ = srv.Shutdown(sctx) // best-effort teardown
		cancel()
	}
}
