package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"github.com/radix-net/radixnet/internal/serve"
)

// ScaleTo moves a model to n replicas through the admin fan-out: new ring
// owners get the register request on the model's record POSTed (engines
// built before any traffic routes to them), surplus owners get a targeted
// DELETE whose server-side drain is lease-counted — in-flight batches
// finish on the old replica, so a scale-down drops zero requests. The
// record's replica count is raised only after scale-out registration
// completes and lowered before scale-in draining starts, so the routing
// walk never widens onto a backend that does not host the model yet nor
// keeps sending to one being drained. Returns the per-backend outcomes of
// whichever fan-out ran.
func (rt *Router) ScaleTo(ctx context.Context, model string, n int) ([]AdminResult, error) {
	var cur int
	var reg *serve.RegisterRequest
	rt.withRecord(model, func(st *modelState) { cur, reg = rt.replicasOf(st), st.reg })
	if fleet := len(rt.set.backends); n > fleet {
		n = fleet
	}
	if n < 1 {
		n = 1
	}
	if n == cur {
		return nil, nil
	}
	curIDs := rt.set.Placement(model, cur)
	newIDs := rt.set.Placement(model, n)
	if n > cur {
		if reg == nil {
			return nil, fmt.Errorf("cluster: cannot scale out %q: no register config on record (model was not registered through this router)", model)
		}
		body, err := json.Marshal(reg)
		if err != nil {
			return nil, err
		}
		results := rt.fanOut(ctx, rt.set.except(newIDs, curIDs), func(ctx context.Context, c serve.Client) (int, error) {
			return c.Register(ctx, body)
		})
		for _, res := range results {
			// 409 means the backend already hosts the model (a previous
			// scale-out or manual registration) — the desired state holds.
			if !res.ok() && res.Status != http.StatusConflict {
				return results, fmt.Errorf("cluster: scale-out of %q to %d: backend %s answered %d %s",
					model, n, res.Backend, res.Status, res.Error)
			}
		}
		rt.withRecord(model, func(st *modelState) { st.replicas = n })
		return results, nil
	}
	rt.withRecord(model, func(st *modelState) { st.replicas = n })
	results := rt.fanOut(ctx, rt.set.except(curIDs, newIDs), func(ctx context.Context, c serve.Client) (int, error) {
		return c.Unregister(ctx, model)
	})
	for _, res := range results {
		// 404 means the backend never actually hosted it (a failed earlier
		// registration): the desired state already holds.
		if !res.ok() && res.Status != http.StatusNotFound {
			return results, fmt.Errorf("cluster: scale-in of %q to %d: backend %s answered %d %s",
				model, n, res.Backend, res.Status, res.Error)
		}
	}
	return results, nil
}

// AdminResult is one backend's verdict on a fanned-out control-plane
// operation. Status 0 with Error set means the backend was unreachable.
type AdminResult struct {
	Backend string `json:"backend"`
	Status  int    `json:"status"`
	Error   string `json:"error,omitempty"`
}

// ok reports whether the backend applied the operation.
func (r AdminResult) ok() bool { return r.Status >= 200 && r.Status < 300 }

// AdminFanoutResponse is the router's body for the control-plane verbs:
// which backends were targeted and what each answered. Unreachable lists
// backends whose model inventory could not be scraped during reload/
// unregister discovery — they may still hold a stale copy, so their
// presence demotes the response to 502 even when every reachable target
// succeeded. The HTTP status summarizes: the action's success code when
// every backend succeeded (and discovery saw the whole fleet), the
// backends' unanimous error status when they all failed alike, 502 when
// the fleet answered inconsistently (inspect Results, fix or wait out the
// sick backend, and retry — admin verbs are idempotent on the serve side
// up to 409/404).
type AdminFanoutResponse struct {
	Model       string        `json:"model"`
	Action      string        `json:"action"`
	Targets     []string      `json:"targets"`
	Results     []AdminResult `json:"results"`
	Unreachable []string      `json:"unreachable,omitempty"`
}

// adminTimeout bounds each per-backend request of a control-plane fan-out
// (register/reload/unregister). These run longer than probes —
// registration builds engines and unregister blocks on the model's drain —
// but stay finite so one wedged backend cannot stall an admin verb forever.
const adminTimeout = 60 * time.Second

// fanOut performs one admin verb against every target backend
// concurrently, each bounded by adminTimeout, and collects per-backend
// outcomes in target order.
func (rt *Router) fanOut(ctx context.Context, targets []*Backend, verb func(context.Context, serve.Client) (int, error)) []AdminResult {
	return perBackend(ctx, adminTimeout, targets, func(ctx context.Context, b *Backend) AdminResult {
		status, err := verb(ctx, b.client)
		res := AdminResult{Backend: b.id, Status: status}
		var refused *serve.StatusError
		switch {
		case errors.As(err, &refused):
			res.Error = refused.Message
		case err != nil:
			res.Error = err.Error()
		}
		return res
	})
}

// writeAdminFanout summarizes fan-out results into one response status per
// AdminFanoutResponse's contract. unreachable backends (discovery could
// not inventory them) veto the success code: they may hold a copy the
// operation did not reach.
func writeAdminFanout(w http.ResponseWriter, model, action string, successCode int, targets []*Backend, results []AdminResult, unreachable []string) {
	resp := AdminFanoutResponse{Model: model, Action: action, Results: results, Unreachable: unreachable}
	for _, b := range targets {
		resp.Targets = append(resp.Targets, b.id)
	}
	ok := 0
	unanimous := -1
	for _, res := range results {
		switch {
		case res.ok():
			ok++
		case unanimous == -1:
			unanimous = res.Status
		case unanimous != res.Status:
			unanimous = 0 // mixed failure statuses (0 also covers transport errors)
		}
	}
	code := http.StatusBadGateway
	switch {
	case ok == len(results) && len(unreachable) == 0:
		code = successCode
	case ok == 0 && unanimous > 0 && len(unreachable) == 0:
		code = unanimous
	}
	writeJSON(w, code, resp)
}

// handleAdminRegister is POST /v1/models fleet-wide: the model is
// registered on its ring-intended replicas (placement-aware, health
// ignored — an ejected intended owner is reported as a failed target so
// the operator can re-run registration once it recovers; meanwhile the
// 404-failover path tolerates the placement drift).
func (rt *Router) handleAdminRegister(w http.ResponseWriter, r *http.Request) {
	rt.met.admin.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "", "reading request body: %v", err)
		return
	}
	req, bad := serve.DecodeRegisterRequest(body)
	if bad != nil {
		writeError(w, bad.Status, "", "%s", bad.Message)
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusUnprocessableEntity, "", "missing model name")
		return
	}
	targets := rt.set.except(rt.set.Placement(req.Name, rt.ReplicasFor(req.Name)), nil)
	results := rt.fanOut(r.Context(), targets, func(ctx context.Context, c serve.Client) (int, error) {
		return c.Register(ctx, body)
	})
	// The request becomes the model's desired config: a later scale-out
	// registers exactly this on new ring owners. A body every target
	// refused (409: the name is taken by another config) is not the fleet's
	// state and must not become it at the next scale-out.
	if slices.ContainsFunc(results, AdminResult.ok) {
		rt.withRecord(req.Name, func(st *modelState) { st.reg = &req })
	}
	writeAdminFanout(w, req.Name, "register", http.StatusCreated, targets, results, nil)
}

// handleAdminReload is PUT /v1/models/{name} fleet-wide: every backend
// currently reporting the model hot-reloads it (not just the intended
// owners — after a fleet change a model may live on ring successors, and a
// reload must reach every copy or the fleet would serve mixed weights).
func (rt *Router) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	rt.met.admin.Add(1)
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, name, "reading request body: %v", err)
		return
	}
	reload, bad := serve.DecodeRegisterRequest(body)
	if bad != nil {
		writeError(w, bad.Status, name, "%s", bad.Message)
		return
	}
	targets, unreachable := rt.set.backendsHosting(r.Context(), name)
	if len(targets) == 0 && len(unreachable) == 0 {
		writeError(w, http.StatusNotFound, name, "model %q not hosted by any reachable backend", name)
		return
	}
	results := rt.fanOut(r.Context(), targets, func(ctx context.Context, c serve.Client) (int, error) {
		return c.Reload(ctx, name, body)
	})
	// A reload some backend applied changes the model's desired config, so
	// a later scale-out builds the reloaded weights on new owners, not the
	// originals — and not a config every backend refused. A reload changes
	// only the config: a recorded request keeps its engine count and policy.
	if slices.ContainsFunc(results, AdminResult.ok) {
		rt.withRecord(name, func(st *modelState) {
			req := reload
			if st.reg != nil {
				req = *st.reg
				req.Config = reload.Config
			}
			req.Name = name
			st.reg = &req
		})
	}
	writeAdminFanout(w, name, "reload", http.StatusOK, targets, results, unreachable)
}

// handleAdminUnregister is DELETE /v1/models/{name} fleet-wide, to every
// backend reporting the model.
func (rt *Router) handleAdminUnregister(w http.ResponseWriter, r *http.Request) {
	rt.met.admin.Add(1)
	name := r.PathValue("name")
	targets, unreachable := rt.set.backendsHosting(r.Context(), name)
	if len(targets) == 0 && len(unreachable) == 0 {
		writeError(w, http.StatusNotFound, name, "model %q not hosted by any reachable backend", name)
		return
	}
	results := rt.fanOut(r.Context(), targets, func(ctx context.Context, c serve.Client) (int, error) {
		return c.Unregister(ctx, name)
	})
	// The model is gone fleet-wide: drop its record so a future
	// registration starts from the configured default again.
	rt.scaleMu.Lock()
	delete(rt.models, name)
	rt.scaleMu.Unlock()
	writeAdminFanout(w, name, "unregister", http.StatusOK, targets, results, unreachable)
}
