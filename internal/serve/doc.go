// Package serve turns the fused RadiX-Net inference kernel stack into a
// production inference service: a model registry owning pools of warm
// infer.Engine instances, a dynamic micro-batching scheduler that coalesces
// concurrent single-row requests into dense batches, and an HTTP JSON API
// with health and metrics endpoints. It is the system layer the ROADMAP
// north star asks for — the Graph Challenge setting of Kepner et al.
// (arXiv:1905.00416) assumes many models × many inputs, and serving is what
// carries single-engine kernel speed to that scale.
//
// # Architecture
//
// Registry — models are registered by name from a core.Config (or its
// graphio JSON wire form). Registration builds the RadiX-Net once and
// clones the resulting engine into a pool of warm instances: clones share
// the immutable weight stack (matrices + precomputed CSC kernels) but own
// their ping-pong scratch, so the pool costs N activation buffers, not N
// model copies. The kernel is not a serving option: every generation is
// built by infer.FromConfig, which numbers its values, and GET /v1/models
// reports how many layers run as quotients. Engines are leased per batch
// over a buffered channel; infer.ErrBusy backs the contract that no two
// batches ever share an engine. Each engine gets a private
// parallel.Pool sized parallel.Quota(poolSize): with many engines each runs
// its layer loops serially and parallelism comes from concurrent batches,
// avoiding core oversubscription.
//
// Control plane — the registry is live: Unregister drains a model and
// removes it, and Reload hot-swaps a model's entire engine pool for one
// built from a new config of the same input/output shape. Because a pool's
// engines share one weight stack, generations swap as a unit: the new pool
// is built off-lock, installed with one atomic pointer swap, and the old
// generation is retired only after lease counting shows its last
// checked-out engine home — so in-flight batches finish on the weights
// they started with and concurrent callers never see a failure.
// HTTP surfaces these as POST /v1/models (409 on duplicates), PUT
// /v1/models/{name} (404 unknown, 422 shape change), and DELETE
// /v1/models/{name} (404 unknown).
//
// QoS scheduler — the request path is QoS-aware end to end. Callers submit
// a Request carrying a priority class (default set: interactive/batch/
// background with weights 8/2/1, configurable via QoSConfig), an optional
// deadline, and a multi-row payload; Model.Do returns a Response with
// queue-wait and execute timings. Each model keeps one bounded FIFO per
// class (capacity Policy.QueueDepth each) drained by Policy.Workers
// collector goroutines running deficit round-robin: every visit to a
// backlogged class credits it weight rows, so dispatch converges to weight
// proportions under contention and any backlogged class with nonzero
// weight makes progress within a bounded number of dispatches — a
// saturating background flood cannot starve interactive traffic. Rows
// whose deadline has passed are shed at dequeue (ErrDeadlineExceeded,
// HTTP 504), never executed.
//
// Micro-batching — a collector takes a weighted-fair batch and — if still
// short of Policy.MaxBatch — waits up to Policy.MaxLatency for more rows
// before leasing an engine and running one fused forward pass over the
// coalesced batch (classes share batches; priority decides dequeue order,
// not batch membership). Single-row latency is therefore bounded by
// MaxLatency plus one batch execution, while throughput under load
// approaches the engine's dense-batch rate. A batch already holding every
// in-flight row waits only a short grace window rather than the full
// budget (the single-client fast path: a closed-loop client pays
// microseconds, not the batching budget; multi-row requests announce their
// rows up front so they still coalesce whole). Because every batch goes
// through the same Engine.Infer gather/scatter kernels, batched results
// are bit-identical to per-row inference. When QoSConfig.ExecSlots bounds
// the registry's engine quota, models contending for slots are granted
// them share-weighted (Policy.Share) by a stride scheduler.
//
// Backpressure — each class queue is a hard bound. A submission that finds
// its class full fails immediately with ErrQueueFull (surfaced as HTTP 429
// with the class attributed and a Retry-After read from the class's
// queue-wait p90) instead of queuing unboundedly; shutdown fails new
// submissions with ErrClosed (HTTP 503) while draining rows already
// accepted.
//
// HTTP API — POST /v1/infer runs rows through the batcher (body fields
// "class" and "deadline_ms", or the X-Radix-Class/X-Radix-Deadline-Ms
// headers a cluster router forwards); GET /v1/models lists registered
// models; GET /healthz reports liveness; GET /metrics exposes
// request/batch/latency counters plus per-class queue-wait series in
// Prometheus text format. The Server wraps net/http with graceful
// shutdown: stop accepting, drain in-flight handlers, then drain the
// batchers. An infer request is decoded by json.Unmarshal into a pooled
// exchange, whose rows keep their storage from one request to the next, and
// the batcher writes the outputs into the exchange's flat output block in
// place.
//
// Observability — the request path is instrumented with internal/obs
// primitives chosen so measurement never contends with serving, one
// instrument per quantity: latency (end-to-end per model and per
// model×class, queue wait per model×class, execute per model) and batch
// size are recorded in lock-free log-bucketed histograms (one atomic add
// per observation, 0 allocs) exported as Prometheus histogram families
// whose shared bucket ladder a router can merge bucket-wise; row outcomes
// are counted per class. Every other count is read from those: the
// model's row counters are the class sums, completed rows a latency
// histogram's count, batches, batched rows and engine-busy time the
// batch-size and execute histograms' counts and sums (Metrics,
// MetricsSnapshot). Histograms are read in one form, the exposition
// ladder (obs.ScrapedHist), so the 429 Retry-After — the queue-wait p90
// once enough samples exist — is the number a scraper of /metrics
// computes. Max-style gauges are windowed (reset on scrape). Every request carries a
// 32-hex trace ID (X-Radix-Trace-Id honored, else generated) returned in
// the response header and body together with per-stage spans (admission,
// queue, assemble, lease, execute, deliver); recent and slowest traces
// are retained in a bounded lock-free ring served by GET /debug/traces,
// and ServerOptions.SlowRequest logs outliers with their span breakdown.
// ServerOptions.Pprof mounts net/http/pprof; /metrics always includes Go
// runtime gauges.
package serve
