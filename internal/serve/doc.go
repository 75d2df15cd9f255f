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
// reports how many layers run as quotients. A model runs one batch worker
// per engine, so the pool size is the model's only concurrency number.
// Engines are leased per batch over a buffered channel; infer.ErrBusy backs
// the contract that no two batches ever share an engine. Each engine gets a
// private parallel.Pool sized parallel.Quota(poolSize): with many engines
// each runs its layer loops serially and parallelism comes from concurrent
// batches, avoiding core oversubscription.
//
// Control plane — the registry is live: Unregister drains a model and
// removes it, and Reload hot-swaps a model's entire engine pool for one
// built from a new config of the same input/output shape and the same
// engine count. Because a pool's engines share one weight stack,
// generations swap as a unit: the new pool
// is built off-lock, installed with one atomic pointer swap, and the old
// generation is retired only after lease counting shows its last
// checked-out engine home — so in-flight batches finish on the weights
// they started with and concurrent callers never see a failure.
// HTTP surfaces these as POST /v1/models (409 on duplicates), PUT
// /v1/models/{name} (404 unknown, 422 shape change or another engine
// count), and DELETE /v1/models/{name} (404 unknown).
//
// QoS scheduler — the request path is QoS-aware end to end. Callers submit
// a Request carrying a priority class (default set: interactive/batch/
// background with weights 8/2/1, configurable via QoSConfig), an optional
// deadline, and a multi-row payload; Model.Do returns a Response with
// queue-wait and execute timings. Each model keeps one bounded FIFO per
// class (capacity Policy.QueueDepth each), drained by the model's batch
// workers in deficit round-robin order: every visit to a
// backlogged class credits it weight rows, so dispatch converges to weight
// proportions under contention and any backlogged class with nonzero
// weight makes progress within a bounded number of dispatches — a
// saturating background flood cannot starve interactive traffic. Rows
// whose deadline has passed are shed at dequeue (ErrDeadlineExceeded,
// HTTP 504), never executed.
//
// Micro-batching — the workers take turns at collecting: one worker at a
// time, the collector, takes a weighted-fair batch and — if still short of
// Policy.MaxBatch — waits up to Policy.MaxLatency for more rows, then hands
// the turn on before leasing an engine and running one fused forward pass
// over the coalesced batch (classes share batches; priority decides
// dequeue order, not batch membership). Only the collector listens for new
// rows, so a request that arrives while a batch collects joins it, and
// the other workers execute meanwhile. Single-row latency is therefore
// bounded by MaxLatency plus one batch execution, while throughput under
// load approaches the engine's dense-batch rate. A batch already holding
// every in-flight row waits only a short grace window rather than the full
// budget (the single-client fast path: a closed-loop client pays
// microseconds, not the batching budget). A request's rows are queued in
// one step, so a collector never holds part of a request whose other rows
// are still to come; one that comes to hold every row in flight during its
// full window dispatches then. That is a heuristic: rows finishing on
// another engine mid-window wake nobody, and the window then ends on its
// timer.
// Because every batch goes through the same Engine.Infer gather/scatter
// kernels, batched results are bit-identical to per-row inference. The
// registry's engine quota lets at most GOMAXPROCS batches execute at once
// across all models; batches waiting for a slot get one in the Go runtime's
// wake order for blocked channel senders, and no model has more than its
// engine count of them waiting.
//
// Backpressure — each class queue is a hard bound, and a request is
// admitted whole or refused whole. A request whose rows do not all fit in
// its class queue fails immediately with ErrQueueFull (surfaced as HTTP 429
// with the class attributed and a Retry-After read from the class's
// queue-wait p90) instead of queuing unboundedly, and none of its rows
// runs; a request with more rows than the class queue holds could never
// fit and fails with ErrRequestTooLarge (HTTP 413, naming both numbers).
// Shutdown fails new submissions with ErrClosed (HTTP 503) while draining
// rows already accepted.
//
// HTTP API — POST /v1/infer runs rows through the batcher (body fields
// "class" and "deadline_ms", or the X-Radix-Class/X-Radix-Deadline-Ms
// headers a cluster router forwards); GET /v1/models lists registered
// models; GET /healthz reports liveness; GET /metrics exposes
// request/batch/latency counters plus per-class queue-wait series in
// Prometheus text format. The Server wraps net/http with graceful
// shutdown: stop accepting, drain in-flight handlers, then drain the
// batchers. An infer request is decoded in one pass, without encoding/json
// but to the request json.Unmarshal gives, into a pooled exchange, whose
// rows keep their storage from one request to the next; the batcher writes
// the outputs into the exchange's flat output block in place, and the reply
// is written over the body buffer byte for byte as encoding/json writes it.
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
// The retention contract: a reply's trace is in the ring by the time its
// last byte arrives, so a client that reads /debug/traces?trace=<id> after
// a reply finds it. It holds because the handler files the trace before
// it returns, and no reply's end leaves before then: the replies carry no
// Content-Length, so a short one is buffered until the handler returns and
// a long one is chunked, its terminating chunk written at return. Setting
// Content-Length on these replies would let a long one's last byte leave
// during Write, and breaks the contract unless the trace is filed before
// Write.
// ServerOptions.Pprof mounts net/http/pprof; /metrics always includes Go
// runtime gauges.
package serve
