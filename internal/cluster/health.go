package cluster

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
)

// Backend is one radixserve instance in the fleet: its ring identity, the
// client every conversation with it goes through, and atomic health/traffic
// stats shared by the prober and the router's forwarding path.
type Backend struct {
	id     string // ring identity (host:port)
	client serve.Client
	// attemptSpan and backoffSpan name a routed request's spans on this
	// backend ("attempt:<id>", "backoff:<id>").
	attemptSpan, backoffSpan string

	healthy     atomic.Bool
	consecFails atomic.Int64 // probe + forward failures since the last good probe

	probes        atomic.Int64
	probeFailures atomic.Int64
	forwarded     atomic.Int64 // requests answered by this backend (any status)
	failed        atomic.Int64 // forward attempts lost to transport/5xx errors
	lastErr       atomic.Value // string: most recent probe/forward error
	zone          atomic.Value // string: failure domain self-reported on /healthz ("" = unzoned)

	// attempt records the round-trip latency (ns) of every answered
	// forward attempt against this backend, exported on the router's
	// /metrics as radixrouter_backend_attempt_latency_seconds{backend=id}.
	attempt obs.Histogram
}

// ID returns the backend's ring identity (host:port).
func (b *Backend) ID() string { return b.id }

// Healthy reports whether the backend is in rotation.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Zone returns the backend's failure domain, learned from its /healthz
// self-report (or statically configured); "" until the first good probe of
// a zoned backend.
func (b *Backend) Zone() string {
	if z, ok := b.zone.Load().(string); ok {
		return z
	}
	return ""
}

// setZone records the backend's failure domain (probe self-report or static
// configuration).
func (b *Backend) setZone(z string) { b.zone.Store(z) }

// BackendStatus is a point-in-time copy of a backend's state, the element
// of the router's /healthz report.
type BackendStatus struct {
	ID                  string `json:"id"`
	URL                 string `json:"url"`
	Healthy             bool   `json:"healthy"`
	ConsecutiveFailures int64  `json:"consecutive_failures"`
	Probes              int64  `json:"probes"`
	ProbeFailures       int64  `json:"probe_failures"`
	Forwarded           int64  `json:"forwarded"`
	Failed              int64  `json:"failed"`
	LastError           string `json:"last_error,omitempty"`
	Zone                string `json:"zone,omitempty"`
}

// Status snapshots the backend.
func (b *Backend) Status() BackendStatus {
	s := BackendStatus{
		ID:                  b.id,
		URL:                 b.client.URL,
		Healthy:             b.healthy.Load(),
		ConsecutiveFailures: b.consecFails.Load(),
		Probes:              b.probes.Load(),
		ProbeFailures:       b.probeFailures.Load(),
		Forwarded:           b.forwarded.Load(),
		Failed:              b.failed.Load(),
		Zone:                b.Zone(),
	}
	if e, ok := b.lastErr.Load().(string); ok {
		s.LastError = e
	}
	return s
}

// SetConfig tunes the backend set's health probing. Zero fields select
// defaults.
type SetConfig struct {
	// ProbeInterval is the per-backend /healthz cadence. Default 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe; a hung backend fails its probe.
	// Default 1s.
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure count (probes and forwards
	// combined) that ejects a backend from rotation. Default 3.
	FailAfter int
	// Client issues probes and forwards. Default: a dedicated client with
	// pooled keep-alive connections.
	Client *http.Client
	// Zones statically assigns failure domains by backend, keyed in either
	// form a backend address takes ("host:port" or "http://host:port"),
	// seeding what probes would learn from each backend's /healthz
	// self-report (the self-report wins once a probe answers — the backend
	// knows where it runs). Backends absent from the map start unzoned; a
	// key naming no backend is an error.
	Zones map[string]string
}

func (c SetConfig) withDefaults() SetConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		c.Client = &http.Client{Transport: tr}
	}
	return c
}

// BackendSet owns the fleet membership: the consistent-hash ring over the
// backends plus one prober goroutine per backend. Backends start in
// rotation (healthy) so traffic flows before the first probe completes;
// the probers eject and re-admit from there.
type BackendSet struct {
	cfg  SetConfig
	ring *Ring

	backends map[string]*Backend
	order    []string // construction order, for stable listings

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// normalizeBackend splits one -backend flag value into (id, url): the id is
// the host:port ring identity, the url the http base. "10.0.0.7:8080" and
// "http://10.0.0.7:8080" are equivalent.
func normalizeBackend(raw string) (id, url string, err error) {
	raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
	if raw == "" {
		return "", "", fmt.Errorf("cluster: empty backend address")
	}
	switch {
	case strings.HasPrefix(raw, "http://"):
		id = strings.TrimPrefix(raw, "http://")
	case strings.HasPrefix(raw, "https://"):
		id = strings.TrimPrefix(raw, "https://")
	case strings.Contains(raw, "://"):
		return "", "", fmt.Errorf("cluster: unsupported backend scheme in %q", raw)
	default:
		id, raw = raw, "http://"+raw
	}
	if id == "" || strings.ContainsAny(id, "/ ") {
		return "", "", fmt.Errorf("cluster: malformed backend address %q", raw)
	}
	return id, raw, nil
}

// NewBackendSet builds the fleet from backend addresses ("host:port" or
// "http://host:port"), placing every backend on a fresh ring. Probing does
// not start until Start.
func NewBackendSet(addrs []string, cfg SetConfig) (*BackendSet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	cfg = cfg.withDefaults()
	s := &BackendSet{
		cfg:      cfg,
		ring:     NewRing(DefaultVnodes),
		backends: make(map[string]*Backend, len(addrs)),
		stop:     make(chan struct{}),
	}
	for _, raw := range addrs {
		id, url, err := normalizeBackend(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := s.backends[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", id)
		}
		b := &Backend{id: id, client: serve.Client{URL: url, HTTP: cfg.Client},
			attemptSpan: "attempt:" + id, backoffSpan: "backoff:" + id}
		b.healthy.Store(true)
		s.backends[id] = b
		s.order = append(s.order, id)
		s.ring.Add(id)
	}
	for key, zone := range cfg.Zones {
		id, _, err := normalizeBackend(key)
		if err != nil {
			return nil, fmt.Errorf("cluster: zone seed %q: %w", key, err)
		}
		b, ok := s.backends[id]
		if !ok {
			return nil, fmt.Errorf("cluster: zone seed %q names no backend", key)
		}
		b.setZone(zone)
	}
	return s, nil
}

// Ring returns the placement ring (membership is stable for the set's
// lifetime; health is tracked off-ring so recovery never re-shuffles keys).
func (s *BackendSet) Ring() *Ring { return s.ring }

// Backend looks up one backend by ring id.
func (s *BackendSet) Backend(id string) (*Backend, bool) {
	b, ok := s.backends[id]
	return b, ok
}

// except returns the backends named by ids, in that order, leaving out
// those also named by not.
func (s *BackendSet) except(ids, not []string) []*Backend {
	var out []*Backend
	for _, id := range ids {
		if b, ok := s.backends[id]; ok && !slices.Contains(not, id) {
			out = append(out, b)
		}
	}
	return out
}

// Backends returns every backend in construction order.
func (s *BackendSet) Backends() []*Backend {
	bs := make([]*Backend, 0, len(s.order))
	for _, id := range s.order {
		bs = append(bs, s.backends[id])
	}
	return bs
}

// HealthyCount returns how many backends are in rotation.
func (s *BackendSet) HealthyCount() int {
	n := 0
	for _, b := range s.backends {
		if b.Healthy() {
			n++
		}
	}
	return n
}

// zoneOf resolves a ring id to its backend's failure domain — the lookup
// behind the zone-aware walk.
func (s *BackendSet) zoneOf(id string) string {
	if b, ok := s.backends[id]; ok {
		return b.Zone()
	}
	return ""
}

// Owners returns key's replica set in failover order: the first replicas
// healthy backends in the zone-diverse ring walk from the key's hash —
// replicas spread across min(replicas, zones) distinct failure domains, and
// the next failover candidate preferring yet another zone. Ejected backends
// are skipped transparently, so the walk itself is the failover plan — when
// a primary dies its successors inherit its keys without any membership
// change. An unzoned fleet degrades to the plain clockwise walk.
func (s *BackendSet) Owners(key string, replicas int) []*Backend {
	if replicas <= 0 {
		replicas = 1
	}
	owners := make([]*Backend, 0, replicas)
	s.ring.WalkSpread(key, s.zoneOf, func(id string) bool {
		if b := s.backends[id]; b.Healthy() {
			owners = append(owners, b)
		}
		return len(owners) < replicas
	})
	return owners
}

// Placement returns key's intended owners (health ignored) — what the
// zone-diverse ring walk assigns, as opposed to what Owners can currently
// route to.
func (s *BackendSet) Placement(key string, replicas int) []string {
	return s.ring.OwnersSpread(key, replicas, s.zoneOf)
}

// Start launches one prober per backend, each probing immediately and then
// every ProbeInterval, so a backend dead at startup is ejected within
// FailAfter×ProbeInterval. Idempotent.
func (s *BackendSet) Start() {
	s.startOnce.Do(func() {
		for _, id := range s.order {
			b := s.backends[id]
			s.wg.Add(1)
			go s.probeLoop(b)
		}
	})
}

// Stop halts probing and waits for the probers to exit. Idempotent.
func (s *BackendSet) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

func (s *BackendSet) probeLoop(b *Backend) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		s.probe(b)
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

// probe hits one backend's /healthz and applies the ejection/re-admission
// rules: FailAfter consecutive failures take it out of rotation, one good
// probe puts it back. The prober runs on its own goroutine with no inbound
// request above it, so each probe legitimately mints its own timeout root.
//
//radix:ctx-root
func (s *BackendSet) probe(b *Backend) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ProbeTimeout)
	defer cancel()
	b.probes.Add(1)
	h, err := b.client.Health(ctx)
	if err != nil {
		b.probeFailures.Add(1)
		s.noteFailure(b, err)
		return
	}
	if h.Zone != "" {
		// The backend's self-report is authoritative: it knows where it
		// runs; a static SetConfig.Zones entry is only the pre-probe seed.
		b.setZone(h.Zone)
	}
	b.consecFails.Store(0)
	b.healthy.Store(true)
}

// noteFailure records one probe or forward failure against the backend and
// ejects it once the consecutive-failure threshold is reached. The
// forwarding path calls this too, so a crashed node is ejected by the
// traffic that discovers it instead of lingering until the next probe.
func (s *BackendSet) noteFailure(b *Backend, err error) {
	if err != nil {
		b.lastErr.Store(err.Error())
	}
	if b.consecFails.Add(1) >= int64(s.cfg.FailAfter) {
		// Eject. The ring keeps the node's points; Owners simply walks past
		// them until a good probe re-admits the backend.
		b.healthy.Store(false)
	}
}

// noteForwardSuccess resets the failure streak after a successful forward
// (any HTTP response proves the node is reachable and serving).
func (s *BackendSet) noteForwardSuccess(b *Backend) {
	b.consecFails.Store(0)
}

// perBackend calls fn once per backend, concurrently, each call under its
// own timeout, and returns the results index-aligned with backends once
// every call is back. It is the package's one goroutine-per-backend loop:
// the admin fan-out, the /metrics scrape and the model listings all run on
// it, so none of them can let one wedged backend stall the rest.
func perBackend[T any](ctx context.Context, timeout time.Duration, backends []*Backend, fn func(context.Context, *Backend) T) []T {
	out := make([]T, len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			out[i] = fn(ctx, b)
		}()
	}
	wg.Wait()
	return out
}

// listing is one backend's GET /v1/models answer.
type listing struct {
	infos []serve.ModelInfo
	err   error
}

// listModels fetches the given backends' model listings, index-aligned.
func (s *BackendSet) listModels(ctx context.Context, backends []*Backend) []listing {
	return perBackend(ctx, s.cfg.ProbeTimeout, backends, func(ctx context.Context, b *Backend) listing {
		infos, err := b.client.Models(ctx)
		return listing{infos, err}
	})
}

// backendsHosting lists every backend's models — health flag ignored,
// because an ejected-but-reachable backend may still hold a copy — and
// returns those that report hosting model, in construction order, plus the
// ids of backends whose listing could not be fetched. This is the discovery
// step of the control plane's reload/unregister fan-out: those verbs must
// reach every live copy of a model (including copies on ring successors
// left over from fleet changes), and a backend discovery cannot see must be
// surfaced to the operator rather than silently skipped — it might rejoin
// still holding the old generation.
func (s *BackendSet) backendsHosting(ctx context.Context, model string) (hosting []*Backend, unreachable []string) {
	backends := s.Backends()
	for i, l := range s.listModels(ctx, backends) {
		switch {
		case l.err != nil:
			unreachable = append(unreachable, backends[i].id)
		case slices.ContainsFunc(l.infos, func(info serve.ModelInfo) bool { return info.Name == model }):
			hosting = append(hosting, backends[i])
		}
	}
	return hosting, unreachable
}
