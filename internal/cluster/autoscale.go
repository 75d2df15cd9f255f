package cluster

import (
	"context"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/serve"
)

// autoscaler is the router-side half of the replica control loop: on every
// policy interval it scrapes the fleet, windows the per-model load signals
// against the previous cycle (queue-wait p90 from the summed per-backend
// histogram windows, 429 rate and throughput from the row-outcome counters,
// SLO burn state from the router's engine), feeds them to the pure
// autoscale.Controller, and actuates its decisions through Router.ScaleTo
// and the shed-class switch. The decision logic lives in
// internal/autoscale; this type owns only the measurement and actuation
// plumbing.
type autoscaler struct {
	rt  *Router
	ctl *autoscale.Controller

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	started bool // guarded by mu; Stop must not wait for a loop never launched

	prev loadWindows // loop-goroutine state

	mu       sync.Mutex
	status   []autoscale.ModelStatus
	recent   []AppliedDecision
	lastEval time.Time
}

// AppliedDecision is one actuation the control loop performed (or failed
// to), retained for GET /v1/autoscale.
type AppliedDecision struct {
	autoscale.Decision
	Time  time.Time `json:"time"`
	Error string    `json:"error,omitempty"`
}

// maxRecentDecisions bounds the actuation log on /v1/autoscale.
const maxRecentDecisions = 64

func newAutoscaler(rt *Router, pol autoscale.Policy) (*autoscaler, error) {
	ctl, err := autoscale.New(pol)
	if err != nil {
		return nil, err
	}
	return &autoscaler{
		rt:   rt,
		ctl:  ctl,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		prev: loadWindows{},
	}, nil
}

// Start launches the control loop goroutine. Idempotent via the router's
// single Start call contract.
func (a *autoscaler) Start() {
	a.mu.Lock()
	a.started = true
	a.mu.Unlock()
	go a.loop()
}

// Stop halts the loop and waits for the in-flight cycle to finish, so no
// ScaleTo fan-out races the router's shutdown. Safe to call when the loop
// was never started (a router driven through Handler() in tests).
func (a *autoscaler) Stop() {
	a.once.Do(func() { close(a.stop) })
	a.mu.Lock()
	started := a.started
	a.mu.Unlock()
	if started {
		<-a.done
	}
}

// loop is the control loop's goroutine root: it owns every evaluation
// cycle until Stop and must not inherit a request context.
//
//radix:ctx-root
func (a *autoscaler) loop() {
	defer close(a.done)
	ticker := time.NewTicker(a.ctl.Policy().Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-ticker.C:
			a.cycle()
		}
	}
}

// cycle runs one evaluation interval: measure, decide, actuate. Like
// loop, it owns its contexts — the scrape pass gets one evaluation
// interval, each actuation gets the admin fan-out budget — rather than
// inheriting a request's.
//
//radix:ctx-root
func (a *autoscaler) cycle() {
	ctx, cancel := context.WithTimeout(context.Background(), a.ctl.Policy().Interval)
	defer cancel()
	now := time.Now()
	backends, scrapes := a.rt.scrapeBackends(ctx)
	violated := map[string]bool{}
	if a.rt.slo != nil {
		a.rt.sloRecord(scrapes, mergeFleet(scrapes), now)
		for _, st := range a.rt.slo.Evaluate(now) {
			if st.State == slo.StateViolated {
				violated[st.Model] = true
			}
		}
	}

	// Window against the previous cycle and build the stats batch. Models
	// appear once they have exported any queue-wait history; a model with
	// no traffic this window reports p90 0 (which is what lets it count
	// below-band intervals and scale back in).
	interval := a.ctl.Policy().Interval.Seconds()
	fleet := len(a.rt.set.backends)
	windows := a.prev.advance(backends, scrapes)
	stats := make([]autoscale.ModelStats, 0, len(windows))
	for _, model := range slices.Sorted(maps.Keys(windows)) {
		win := windows[model]
		// A model with scraped history gets a record, so its replicas take
		// turns even if it was registered on the backends directly.
		var replicas int
		a.rt.withRecord(model, func(st *modelState) { replicas = a.rt.replicasOf(st) })
		stat := autoscale.ModelStats{
			Model:        model,
			Replicas:     replicas,
			Ceiling:      fleet,
			QueueWaitP90: time.Duration(win.wait.Quantile(0.90) * float64(time.Second)),
			Samples:      win.wait.Count,
			SLOViolated:  violated[model],
		}
		if offered := win.accepted + win.rejected; offered > 0 {
			stat.Rate429 = float64(win.rejected) / float64(offered)
		}
		stat.Throughput = float64(win.accepted) / interval
		stats = append(stats, stat)
	}

	decisions := a.ctl.Evaluate(stats)
	applied := make([]AppliedDecision, 0, len(decisions))
	for _, d := range decisions {
		ad := AppliedDecision{Decision: d, Time: now}
		switch {
		case d.Shed != "" || d.Unshed:
			a.rt.withRecord(d.Model, func(st *modelState) { st.shed = d.Shed })
		default:
			// Actuation gets the admin fan-out budget, not the scrape
			// budget: a scale-out builds engines on the new owners, which
			// on a loaded machine takes far longer than one evaluation
			// interval. The loop simply skips the ticks that elapse.
			actCtx, actCancel := context.WithTimeout(context.Background(), adminTimeout)
			_, err := a.rt.ScaleTo(actCtx, d.Model, d.To)
			actCancel()
			if err != nil {
				ad.Error = err.Error()
				a.rt.log.Warn("autoscale actuation failed",
					"model", d.Model, "from", d.From, "to", d.To, "err", err)
			} else if d.To > d.From {
				a.rt.met.scaleUps.Add(1)
			} else {
				a.rt.met.scaleDowns.Add(1)
			}
		}
		applied = append(applied, ad)
	}

	a.mu.Lock()
	a.status = a.ctl.Status()
	a.lastEval = now
	a.recent = append(a.recent, applied...)
	if n := len(a.recent); n > maxRecentDecisions {
		a.recent = append(a.recent[:0], a.recent[n-maxRecentDecisions:]...)
	}
	a.mu.Unlock()
}

// load is one model's queue-wait histogram (classes merged) and row-outcome
// counters: cumulative as one backend reports them, or one window's worth.
type load struct {
	wait               obs.ScrapedHist
	accepted, rejected uint64
}

// loadWindows holds each backend's last cumulative report per model, keyed
// by backend id. Windows are taken per backend and then summed, never on
// the fleet-merged series: fleet membership varies between cycles, and
// differencing a merge that lost a backend clamps that window to zero, then
// books the backend's whole history as one interval's traffic when it
// returns — a phantom p90 and 429-rate spike the controller would act on.
type loadWindows map[string]map[string]load

// advance windows this cycle's scrapes (index-aligned with backends; nil:
// ejected or failed) against each backend's previous report and returns
// the per-model sums. An unscraped backend keeps its previous report, so on
// its return it contributes only what it served since. A scraped backend's
// report is replaced whole: a model it no longer lists was unregistered
// there, and if it is registered there again, its counters start from zero
// and must not be differenced against the old copy's.
func (prev loadWindows) advance(backends []*Backend, scrapes []*obs.Scrape) map[string]load {
	byModel := []string{"model"}
	windows := map[string]load{}
	for i, scrape := range scrapes {
		if scrape == nil {
			continue
		}
		accepted := obs.SumCounter(serve.MetricRowsAccepted, byModel, scrape)
		rejected := obs.SumCounter(serve.MetricRowsRejected, byModel, scrape)
		last, report := prev[backends[i].id], map[string]load{}
		prev[backends[i].id] = report
		for _, hs := range obs.MergeHist(serve.MetricQueueWait, byModel, nil, scrape) {
			model := hs.Values[0]
			was, now := last[model], load{hs.Hist, accepted[hs.Key], rejected[hs.Key]}
			report[model] = now
			sum := windows[model]
			windows[model] = load{
				wait:     sum.wait.Add(now.wait.Sub(was.wait)),
				accepted: sum.accepted + sub64(now.accepted, was.accepted),
				rejected: sum.rejected + sub64(now.rejected, was.rejected),
			}
		}
	}
	return windows
}

// sub64 is a clamped counter delta: a backend restart resets its counters,
// which must read as "no new events", never as a huge unsigned wrap.
func sub64(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// AutoscaleStatus is the GET /v1/autoscale body.
type AutoscaleStatus struct {
	Enabled  bool                    `json:"enabled"`
	Policy   autoscale.Policy        `json:"policy,omitempty"`
	LastEval time.Time               `json:"last_eval"`
	Models   []autoscale.ModelStatus `json:"models,omitempty"`
	Recent   []AppliedDecision       `json:"recent_decisions,omitempty"`
}

// handleAutoscale is GET /v1/autoscale: the control loop's live state —
// per-model load signals, stability counters, and the recent actuation
// log. TestAutoscaleLoopEndToEnd reads its convergence (StableIntervals)
// and SLO actuation checks from here. 404 when autoscaling is disabled.
func (rt *Router) handleAutoscale(w http.ResponseWriter, r *http.Request) {
	if rt.scaler == nil {
		writeJSON(w, http.StatusNotFound, AutoscaleStatus{Enabled: false})
		return
	}
	a := rt.scaler
	a.mu.Lock()
	out := AutoscaleStatus{
		Enabled:  true,
		Policy:   a.ctl.Policy(),
		LastEval: a.lastEval,
		Models:   slices.Clone(a.status),
		Recent:   append([]AppliedDecision(nil), a.recent...),
	}
	a.mu.Unlock()
	// The count routing uses, not the one the cycle evaluated before acting.
	for i := range out.Models {
		out.Models[i].Replicas = rt.ReplicasFor(out.Models[i].Model)
	}
	writeJSON(w, http.StatusOK, out)
}
