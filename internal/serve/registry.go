package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/parallel"
)

var (
	// ErrNotRegistered reports an Unregister or Reload of a model name the
	// registry does not hold. The HTTP layer maps it to 404.
	ErrNotRegistered = errors.New("serve: model not registered")
	// ErrAlreadyRegistered reports a Register under a name already taken.
	// The HTTP layer maps it to 409.
	ErrAlreadyRegistered = errors.New("serve: model already registered")
	// ErrIncompatible reports a Reload whose new configuration changes the
	// model's input or output width: rows already queued for the old shape
	// could not execute on the new engines, so the swap is refused. The
	// HTTP layer maps it to 422.
	ErrIncompatible = errors.New("serve: incompatible reload config")
)

// enginePool is one generation of a model's warm engines: the engines, their
// private worker pools, and the configuration they were built from. Hot
// reload swaps a model's entire generation atomically — engines of one
// generation share a weight stack and kernels, so they can never mix with
// the next generation's — and retires the old one once every outstanding
// lease has come home.
type enginePool struct {
	gen     int // 1 at registration, +1 per reload
	cfg     core.Config
	layers  int
	weights int
	density float64

	engines chan *infer.Engine // the warm pool; lease = receive, release = send
	all     []*infer.Engine    // every member, for lease routing bookkeeping
	workers []*parallel.Pool   // private per-engine worker pools, closed at retire

	// leases counts engines checked out plus leases in progress. retire
	// waits for it to reach zero (signaled by drained) before closing the
	// worker pools, so in-flight batches always finish on the generation
	// that started them.
	leases  atomic.Int64
	retired atomic.Bool
	drained chan struct{}
	once    sync.Once
}

// newEnginePool builds one generation: the base engine from cfg
// (infer.FromConfig), clones sharing its weight stack and the steps its
// numbering bound, and a private worker pool per engine sized to a fair share
// of the machine.
func newEnginePool(cfg core.Config, engines int, profileEvery int) (*enginePool, error) {
	base, err := infer.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	if profileEvery > 0 {
		// Attach the per-layer profiler before cloning so the whole
		// generation aggregates into one set of tallies.
		base.EnableProfiling(profileEvery)
	}
	ep := &enginePool{
		gen:     1,
		cfg:     cfg,
		layers:  base.NumLayers(),
		weights: base.TotalNNZ(),
		density: core.Density(cfg),
		engines: make(chan *infer.Engine, engines),
		drained: make(chan struct{}),
	}
	quota := parallel.Quota(engines)
	for i := 0; i < engines; i++ {
		e := base
		if i > 0 {
			e = base.Clone()
		}
		p := parallel.NewPool(quota)
		e.SetPool(p)
		ep.workers = append(ep.workers, p)
		ep.all = append(ep.all, e)
		ep.engines <- e
	}
	return ep, nil
}

// unlease drops one lease and, when the generation is retired and this was
// the last one out, signals the retirer that every engine is home.
func (ep *enginePool) unlease() {
	if ep.leases.Add(-1) == 0 && ep.retired.Load() {
		ep.once.Do(func() { close(ep.drained) })
	}
}

// retire takes the generation out of service: new leases bounce to the
// model's current pool, outstanding leases drain (retire blocks until the
// last engine is released), then the worker pools close. Must be called at
// most once, by whoever swapped or removed the generation.
func (ep *enginePool) retire() {
	ep.retired.Store(true)
	if ep.leases.Load() == 0 {
		ep.once.Do(func() { close(ep.drained) })
	}
	<-ep.drained
	for _, p := range ep.workers {
		p.Close()
	}
}

// Model is one registered RadiX-Net prepared for serving: a pool of warm
// engines (swappable as a unit by Registry.Reload) plus the weighted-fair
// micro-batching scheduler in front of it.
type Model struct {
	name    string
	inW     int // invariant across reloads (queued rows must stay executable)
	outW    int // invariant across reloads
	engines int // every generation's pool size, one batch worker each
	pol     Policy
	qos     *qosSet // the registry's class universe, shared by every model

	pool atomic.Pointer[enginePool]
	home sync.Map // *infer.Engine → *enginePool, routes Release across generations

	met Metrics
	bat *batcher
}

// ModelInfo is the externally visible description of a registered model,
// also the JSON element of GET /v1/models.
type ModelInfo struct {
	Name        string  `json:"name"`
	Generation  int     `json:"generation"`
	InputWidth  int     `json:"input_width"`
	OutputWidth int     `json:"output_width"`
	Layers      int     `json:"layers"`
	Weights     int     `json:"weights"`
	Density     float64 `json:"density"`
	// QuotientLayers says how much of the stack's structure the current
	// generation's engines use (infer.Engine.QuotientLayers, read when
	// asked): the layers whose values number their columns into fewer classes
	// than columns, which run on class vectors. A reload that ships written
	// weights shows up as it dropping.
	QuotientLayers int `json:"quotient_layers"`
	// DistinctLayers, StructureBytes and ValueBytes are infer.Engine.Footprint
	// of the current generation, read when asked: the index and weight storage
	// the whole warm pool shares, arrays that several layers read counted
	// once. A config-built model holds one layer's worth per distinct layer of
	// its config and one run of weights; a generation whose weights were
	// written shows the copies it took.
	DistinctLayers int   `json:"distinct_layers"`
	StructureBytes int64 `json:"structure_bytes"`
	ValueBytes     int64 `json:"value_bytes"`

	Engines      int     `json:"engines"`
	MaxBatch     int     `json:"max_batch"`
	MaxLatencyMs float64 `json:"max_latency_ms"`
	QueueDepth   int     `json:"queue_depth"`
}

// Registry loads and owns served models: it builds RadiX-Net engines by
// config, keeps a warm engine pool per model, and runs each model's
// weighted-fair micro-batcher. Every model shares the registry's class set
// and its cross-model engine quota. Models can be registered, hot-reloaded,
// and unregistered at runtime. Safe for concurrent use.
type Registry struct {
	pol Policy // default policy for Register
	qos *qosSet
	// slots is the cross-model engine quota: one buffered slot per
	// GOMAXPROCS, each batch execution of every model holding one.
	slots chan struct{}

	mu     sync.RWMutex
	models map[string]*Model
	names  []string // registration order, for stable listings
	closed bool

	// profEvery, when positive, attaches a per-layer engine profiler to
	// every generation built afterwards, sampling one in every N batches
	// (see infer.Profiler). Zero leaves profiling off.
	profEvery atomic.Int32
}

// SetProfileEvery configures engine-layer profiling for generations
// built after the call (registrations and reloads): every Nth batch is
// timed layer-by-layer. n <= 0 disables profiling for new generations.
func (r *Registry) SetProfileEvery(n int) {
	if n < 0 {
		n = 0
	}
	r.profEvery.Store(int32(n))
}

// NewRegistry returns an empty registry whose Register calls default to the
// given policy (zero fields of which default per Policy's docs), with the
// default QoS configuration (DefaultClassWeights, unlabeled requests
// scheduled as interactive).
func NewRegistry(pol Policy) *Registry {
	r, err := NewRegistryQoS(pol, QoSConfig{})
	if err != nil {
		// The zero QoSConfig is valid by construction.
		panic(err)
	}
	return r
}

// NewRegistryQoS is NewRegistry with an explicit QoS configuration: the
// class set and weights the weighted-fair scheduler uses and the default
// class for unlabeled requests. The registry-wide engine quota is
// GOMAXPROCS batch executions at once across all models.
func NewRegistryQoS(pol Policy, qos QoSConfig) (*Registry, error) {
	qs, err := newQoSSet(qos)
	if err != nil {
		return nil, err
	}
	return &Registry{
		pol:    pol,
		qos:    qs,
		slots:  make(chan struct{}, runtime.GOMAXPROCS(0)),
		models: make(map[string]*Model),
	}, nil
}

// Classes reports the registry's class set with its scheduling weights.
func (r *Registry) Classes() map[string]int {
	out := make(map[string]int, r.qos.size())
	for i, name := range r.qos.names {
		out[name] = r.qos.weights[i]
	}
	return out
}

// DefaultClass reports the class unlabeled requests are scheduled as.
func (r *Registry) DefaultClass() string { return r.qos.name(r.qos.def) }

// Register builds the RadiX-Net of cfg with Graph Challenge weighting and
// registers it under name with a pool of `engines` warm engine instances
// (min 1), each driven by its own batch worker, using the registry's
// default policy, built by infer.FromConfig: a
// layer past the first whose values number its columns into fewer classes
// than columns runs as a quotient through the CSC gather, and the others run
// the CSC gather / CSR scatter pair per column.
func (r *Registry) Register(name string, cfg core.Config, engines int) (*Model, error) {
	return r.RegisterWithPolicy(name, cfg, engines, r.pol)
}

// RegisterWithPolicy is Register with a per-model batching policy override.
func (r *Registry) RegisterWithPolicy(name string, cfg core.Config, engines int, pol Policy) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if engines < 1 {
		engines = 1
	}
	pol = pol.withDefaults()

	// Build outside the lock: generation is the expensive part and must not
	// serialize against lookups.
	ep, err := newEnginePool(cfg, engines, int(r.profEvery.Load()))
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	widths := cfg.LayerWidths()
	m := &Model{
		name:    name,
		inW:     widths[0],
		outW:    widths[len(widths)-1],
		engines: engines,
		pol:     pol,
		qos:     r.qos,
	}
	m.met.classes = make([]ClassMetrics, r.qos.size())
	// Exemplar capture on every latency-bearing histogram: one atomic
	// pointer swap per traced observation, and /metrics buckets resolve
	// to the trace that landed in them.
	m.met.LatencyHist.EnableExemplars()
	for i := range m.met.classes {
		m.met.classes[i].WaitHist.EnableExemplars()
		m.met.classes[i].LatencyHist.EnableExemplars()
	}
	m.indexPool(ep)
	m.pool.Store(ep)
	m.bat = newBatcher(m, pol, r.qos, r.slots)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		m.teardown()
		return nil, ErrClosed
	}
	if _, dup := r.models[name]; dup {
		m.teardown()
		return nil, fmt.Errorf("%w: %q", ErrAlreadyRegistered, name)
	}
	r.models[name] = m
	r.names = append(r.names, name)
	return m, nil
}

// Unregister removes the named model from the registry and tears it down:
// new submissions fail with ErrClosed, rows already accepted finish on the
// model's engines, then the engine pool is retired. Blocks until the drain
// completes. Engines leased out through Model.Lease must be Released first.
func (r *Registry) Unregister(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	delete(r.models, name)
	for i, n := range r.names {
		if n == name {
			r.names = append(r.names[:i], r.names[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	m.teardown()
	return nil
}

// Reload hot-swaps the named model's engines for a pool built from cfg:
// the new pool is built off-lock, then installed atomically — in-flight
// batches finish on the old engines (the old generation is retired only
// after its last lease comes home), new leases get the new pool. The
// model's batcher, queue, and policy survive the swap, so concurrent
// Do calls observe zero failures. The new configuration must keep the
// model's input and output widths (ErrIncompatible otherwise); interior
// topology and weights may change. The pool size does not: the new
// generation has as many engines as the model has batch workers. The new
// generation's values are numbered afresh.
func (r *Registry) Reload(name string, cfg core.Config) (*Model, error) {
	r.mu.RLock()
	m, ok := r.models[name]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	// Validate before touching LayerWidths: a malformed config must error
	// like Register does, not panic on an empty systems slice.
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	widths := cfg.LayerWidths()
	if widths[0] != m.inW || widths[len(widths)-1] != m.outW {
		return nil, fmt.Errorf("%w: model %q serves %d→%d, new config is %d→%d",
			ErrIncompatible, name, m.inW, m.outW, widths[0], widths[len(widths)-1])
	}
	// The expensive build happens with no locks held and the old pool
	// still serving traffic.
	ep, err := newEnginePool(cfg, m.engines, int(r.profEvery.Load()))
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}

	r.mu.Lock()
	if closedNow := r.closed; closedNow || r.models[name] != m {
		// Closed or unregistered while we were building: the new pool was
		// never visible, so it can be torn down directly.
		r.mu.Unlock()
		ep.retire()
		if closedNow {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	ep.gen = m.pool.Load().gen + 1
	m.indexPool(ep)
	old := m.pool.Swap(ep)
	r.mu.Unlock()

	m.met.Reloads.Add(1)
	// Retire off-lock: this blocks until the old generation's in-flight
	// batches release their engines, which must not stall lookups or
	// further registrations.
	old.retire()
	m.dropPool(old)
	return m, nil
}

// ReloadJSON is Reload for a configuration in the graphio JSON wire format.
func (r *Registry) ReloadJSON(name string, cfgJSON []byte) (*Model, error) {
	cfg, err := graphio.UnmarshalConfig(cfgJSON)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	return r.Reload(name, cfg)
}

// Model returns the named model.
func (r *Registry) Model(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// List describes every registered model in registration order.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]ModelInfo, 0, len(r.names))
	for _, name := range r.names {
		infos = append(infos, r.models[name].Info())
	}
	return infos
}

// all returns the models in registration order (for metrics export).
func (r *Registry) all() []*Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ms := make([]*Model, 0, len(r.names))
	for _, name := range r.names {
		ms = append(ms, r.models[name])
	}
	return ms
}

// Closed reports whether Close has begun: the registry is draining for
// shutdown and refuses new work. The HTTP health endpoint uses it to flip
// /healthz to "draining" so cluster routers take the backend out of
// rotation proactively.
func (r *Registry) Closed() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.closed
}

// Close drains every model — new submissions fail with ErrClosed, rows
// already accepted still execute — then releases the engines' private
// worker pools. Engines leased out through Model.Lease must be Released
// before Close, and no engine may be used after it. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	ms := make([]*Model, 0, len(r.names))
	for _, name := range r.names {
		ms = append(ms, r.models[name])
	}
	r.mu.Unlock()
	for _, m := range ms {
		m.teardown()
	}
}

// teardown drains the batcher (when it exists) and retires the current
// engine generation. Callers must ensure it runs at most once per model
// (the registry does: a model is torn down by whoever removed it).
func (m *Model) teardown() {
	if m.bat != nil {
		m.bat.close()
	}
	ep := m.pool.Load()
	ep.retire()
	m.dropPool(ep)
}

// indexPool records a generation's engines for Release routing. The home
// entries must exist before the pool becomes visible to Lease, so a lease
// taken the instant after the swap can already release.
func (m *Model) indexPool(ep *enginePool) {
	for _, e := range ep.all {
		m.home.Store(e, ep)
	}
}

// dropPool forgets a retired generation's engines.
func (m *Model) dropPool(ep *enginePool) {
	for _, e := range ep.all {
		m.home.Delete(e)
	}
}

// Name returns the model's registry name.
func (m *Model) Name() string { return m.name }

// Config returns the RadiX-Net configuration of the model's current engine
// generation.
func (m *Model) Config() core.Config { return m.pool.Load().cfg }

// Generation returns the model's engine-pool generation: 1 at registration,
// incremented by every successful Reload.
func (m *Model) Generation() int { return m.pool.Load().gen }

// InputWidth returns the width a request row must have.
func (m *Model) InputWidth() int { return m.inW }

// OutputWidth returns the width of a result row.
func (m *Model) OutputWidth() int { return m.outW }

// Metrics returns the model's live counters.
func (m *Model) Metrics() *Metrics { return &m.met }

// Info describes the model and its batching policy.
func (m *Model) Info() ModelInfo {
	ep := m.pool.Load()
	fp := ep.all[0].Footprint()
	return ModelInfo{
		Name:         m.name,
		Generation:   ep.gen,
		InputWidth:   m.inW,
		OutputWidth:  m.outW,
		Layers:       ep.layers,
		Weights:      ep.weights,
		Density:      ep.density,
		Engines:      m.engines,
		MaxBatch:     m.pol.MaxBatch,
		MaxLatencyMs: float64(m.pol.MaxLatency) / float64(time.Millisecond),
		QueueDepth:   m.pol.QueueDepth,

		QuotientLayers: ep.all[0].QuotientLayers(),
		DistinctLayers: fp.DistinctLayers,
		StructureBytes: fp.StructureBytes,
		ValueBytes:     fp.ValueBytes,
	}
}

// Profile snapshots the current generation's engine-layer profiler:
// per-layer kernel time and Gedges/s over the sampled batches,
// aggregated across the whole warm pool (the profiler is shared by
// every engine of the generation). ok is false when profiling is off.
func (m *Model) Profile() (infer.ProfileSnapshot, bool) {
	ep := m.pool.Load()
	if len(ep.all) == 0 {
		return infer.ProfileSnapshot{}, false
	}
	return ep.all[0].Profile()
}

// PoolStats reports the current generation's warm-pool size and how
// many engines are leased out right now (the utilization gauge pair on
// /metrics). Leased is clamped to [0, engines]: the lease counter
// transiently includes leases-in-progress.
func (m *Model) PoolStats() (engines, leased int) {
	ep := m.pool.Load()
	engines = len(ep.all)
	l := int(ep.leases.Load())
	if l < 0 {
		l = 0
	}
	if l > engines {
		l = engines
	}
	return engines, l
}

// Lease checks a warm engine out of the current generation's pool, blocking
// until one is free. The caller owns the engine exclusively until Release;
// the batcher leases one per batch. Every Lease must be paired with Release
// before the model is unregistered or the registry closed. A Reload
// concurrent with Lease is safe: the lease either lands on the old
// generation (which is retired only after the matching Release) or the new
// one.
func (m *Model) Lease() *infer.Engine {
	for {
		ep := m.pool.Load()
		ep.leases.Add(1)
		if ep.retired.Load() {
			// A reload swapped generations between the Load and the lease
			// count; back out and take the current pool. The counter order
			// (count first, then check) means retire() can never miss us:
			// either it sees our lease and waits, or we see its flag.
			ep.unlease()
			continue
		}
		return <-ep.engines
	}
}

// Release returns a leased engine to the generation it came from.
func (m *Model) Release(e *infer.Engine) {
	v, ok := m.home.Load(e)
	if !ok {
		panic("serve: Release of an engine this model did not lease")
	}
	ep := v.(*enginePool)
	ep.engines <- e
	ep.unlease()
}

// ResolveClass canonicalizes a request class name ("" → the registry's
// default class), or fails with ErrUnknownClass. The HTTP layer uses it to
// validate and attribute a request's class before any row is queued.
func (m *Model) ResolveClass(name string) (string, error) {
	id, err := m.qos.id(name)
	if err != nil {
		return "", err
	}
	return m.qos.name(id), nil
}

// retryAfterMinSamples is how many queue waits a class must have observed
// before its histogram p90 is trusted as the Retry-After basis; below it
// the depth/drain-rate fallback answers.
const retryAfterMinSamples = 32

// RetryAfterSeconds estimates how long a backpressured client of the given
// class ("" → default class) should wait before retrying, clamped to
// [1s, 30s]. The HTTP layer emits it as the Retry-After header on 429 so
// the cluster router's backoff path engages with a real number instead of
// a constant.
//
// The primary basis is the class's MEASURED queue-wait distribution: a 429
// means the class queue is full, so a newly admitted row would wait about
// as long as recently dispatched rows did — the p90 of
// radixserve_queue_wait_seconds, read through the same ScrapedHist.Quantile
// a scraper of /metrics computes it with, so the hint is exactly the number
// an operator sees there. A p90 past the ladder's top rung (≈ 17.2s) is
// only known to be at least that, and answers the 30s cap. A distribution
// quantile absorbs batching and DRR interleave effects a depth/drain-rate
// point estimate has to model. Until the class has observed
// retryAfterMinSamples waits the histogram is noise, and the cold fallback
// answers instead: queue depth over the class's DRR share of the engine's
// measured drain capacity (batched rows per second of engine-busy time,
// the sums of BatchHist and ExecHist — a property of the model, stable
// across idle periods, so a long-idle model never tells its first burst to
// park for the 30s cap while the queue actually drains in milliseconds).
func (m *Model) RetryAfterSeconds(class string) int {
	id, err := m.qos.id(class)
	if err != nil {
		id = m.qos.def // unknown classes never reach the queue; be safe anyway
	}
	var secs int
	if wh := m.met.class(id).WaitHist.Snapshot(); wh.Count >= retryAfterMinSamples {
		wh.Exemplars = nil // the quantile reads counts only
		wait := MetricQueueWait.Scraped(wh)
		secs = 30
		if top := wait.Cum[len(wait.Cum)-1]; float64(top) >= 0.90*float64(wait.Count) {
			secs = int(math.Ceil(wait.Quantile(0.90)))
		}
	} else {
		depth, share := m.bat.classBacklog(id)
		rate := 1.0 // rows/s floor: a model that never executed answers something sane
		if rows, busyNs := m.met.BatchHist.Snapshot().Sum, m.met.ExecHist.Snapshot().Sum; rows > 0 && busyNs > 0 {
			rate = max(rate, float64(rows)/(float64(busyNs)/1e9)*share)
		}
		secs = int(math.Ceil(float64(depth) / rate))
	}
	return min(max(secs, 1), 30)
}

// Do submits one QoS-aware request — multi-row payload, priority class,
// optional deadline — to the weighted-fair micro-batcher and blocks until
// every row completes or ctx is done. Rows coalesce with concurrent
// requests' rows into shared engine batches; the scheduler dispatches
// across classes by deficit round-robin, so a flood in one class cannot
// starve another. The request is admitted as a unit: every row is queued
// in one step or none is. It fails before any row is queued on a row of
// the wrong width, a class the registry does not serve
// (ErrUnknownClass), or more rows than the class queue holds
// (ErrRequestTooLarge); it is refused whole with ErrQueueFull under
// backpressure and ErrClosed during shutdown; once queued, it fails with
// the first row error (ErrDeadlineExceeded when rows expired queued). On
// a ctx error rows may still execute later; their outputs are dropped.
func (m *Model) Do(ctx context.Context, req *Request) (*Response, error) {
	if req == nil || len(req.Rows) == 0 {
		return nil, fmt.Errorf("serve: model %q: empty batch", m.name)
	}
	class, err := m.qos.id(req.Class)
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", m.name, err)
	}
	n, w := len(req.Rows), m.outW
	if n > m.pol.QueueDepth {
		return nil, fmt.Errorf("serve: model %q: %w: %d rows, class %q queue holds %d",
			m.name, ErrRequestTooLarge, n, m.qos.name(class), m.pol.QueueDepth)
	}
	if !req.Deadline.IsZero() && !time.Now().Before(req.Deadline) {
		// Already dead on arrival: shed without touching the queues, with
		// the books identical to a dequeue-time shed — Accepted AND Expired,
		// exactly as if the rows had queued and expired instantly, so the
		// accepted = completed + failed + expired + queued identity that
		// dashboards derive in-flight counts from keeps holding.
		cm := m.met.class(class)
		cm.Accepted.Add(int64(n))
		cm.Expired.Add(int64(n))
		return nil, fmt.Errorf("serve: model %q: %w", m.name, ErrDeadlineExceeded)
	}
	for i, row := range req.Rows {
		if len(row) != m.inW {
			return nil, fmt.Errorf("serve: model %q: row %d width %d, want %d", m.name, i, len(row), m.inW)
		}
	}
	// One block holds every output row, in request order, and one slab
	// every pending row.
	out := req.out
	if len(out) != n*w {
		out = make([]float64, n*w)
	}
	outs := make([][]float64, n)
	ps := make([]pending, n)
	enq := time.Now()
	for i, row := range req.Rows {
		outs[i] = out[i*w : (i+1)*w : (i+1)*w]
		ps[i] = pending{
			row:      row,
			out:      outs[i],
			done:     make(chan struct{}),
			enq:      enq,
			class:    class,
			deadline: req.Deadline,
			trace:    req.TraceID,
		}
	}
	if err := m.bat.submit(ps); err != nil {
		return nil, err
	}
	resp := &Response{Outputs: outs, Class: m.qos.name(class), TraceID: req.TraceID}
	if resp.TraceID == "" {
		resp.TraceID = obs.NewTraceID()
	}
	var firstErr error
	var queueD, assembleD, leaseD, deliverD time.Duration
	for i := range ps {
		p := &ps[i]
		select {
		case <-p.done:
			if p.err != nil && firstErr == nil {
				firstErr = p.err
			}
			if p.wait > resp.QueueWait {
				resp.QueueWait = p.wait
			}
			if p.exec > resp.Execute {
				resp.Execute = p.exec
			}
			if p.queued > queueD {
				queueD = p.queued
			}
			if a := p.wait - p.queued; a > assembleD {
				assembleD = a
			}
			if p.lease > leaseD {
				leaseD = p.lease
			}
			if p.deliver > deliverD {
				deliverD = p.deliver
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	resp.Spans = pipelineSpans(req.spans, queueD, assembleD, leaseD, resp.Execute, deliverD)
	return resp, nil
}
