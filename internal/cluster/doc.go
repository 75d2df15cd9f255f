// Package cluster is the horizontal-scaling layer over internal/serve: it
// turns a fleet of radixserve instances into one logical inference service
// behind a thin router tier. The RadiX-Net construction makes individual
// models cheap (density ≈ µ^{−(d−1)}); the ROADMAP north star is serving
// heavy traffic from millions of users, which takes many such models spread
// over many nodes — this package decides the spreading and hides it from
// clients.
//
// # Architecture
//
//	client ── POST /v1/infer ──▶ Router ──▶ owning radixserve replica
//	                              │  ▲            │
//	                              │  └── retry ◀──┘ (next replica on failure)
//	                              └── health prober ──▶ GET /healthz per node
//
// Ring — a consistent-hash ring with virtual nodes places models onto
// backends by model name. Each backend is hashed at DefaultVnodes positions; a
// model's owners are the first Replicas distinct backends clockwise from
// the model's hash. Adding or removing one backend therefore moves only
// ~1/N of the keyspace, so fleet changes re-place few models.
//
// BackendSet — one probed Backend per radixserve instance, each holding
// the serve.Client every request to it goes through (forward, probe,
// listing, admin verb, scrape). An active prober hits each node's
// GET /healthz every ProbeInterval (Client.Health); FailAfter consecutive failures eject the node from
// rotation, and a single successful probe re-admits it. Forwarding errors
// count against the same consecutive-failure threshold, so a crashed node
// is ejected by the traffic that discovers it rather than waiting for the
// next probe tick. All per-backend stats are atomic.
//
// Router — the HTTP front end. It exposes the same API as a single
// radixserve instance: POST /v1/infer forwards the request body to the
// model's first healthy owner and, on a network error, 5xx, or missing
// model, fails over to the next replica (bounded by the replica count);
// HTTP 429 backpressure is honored by backing off per the backend's
// Retry-After header before one retry. GET /v1/models merges the fleet's
// model lists and reports ring placement; GET /metrics merges the fleet's
// Prometheus series (each line labeled with its backend) under the
// router's own radixrouter_* series; GET /healthz reports per-backend
// probe state. Because backends run the same deterministic engines,
// routed results are bit-identical to single-node inference —
// internal/selftest's TestSmokeFleet proves exactly that, plus zero failed
// requests across a mid-load backend kill.
//
// QoS — the router is class-aware. It peeks the request's "class" and
// "deadline_ms" alongside the model name and forwards both to backends as
// the X-Radix-Class and X-Radix-Deadline-Ms headers, the latter recomputed
// per attempt to the budget REMAINING after earlier forwards and backoffs
// (a request that exhausts its budget router-side answers 504 without
// burning a forward). Retry budgets are class-aware (ClassRetries):
// background requests get one backend attempt and no 429 backoff wait by
// default, so a low-priority flood cannot burn the failover attempts and
// router goroutines that interactive traffic needs on a degraded fleet.
// Per-class request counts are exported as radixrouter_class_requests_total.
//
// Observability — the router speaks the same tracing and histogram
// dialect as the serve tier (internal/obs). Each routed request's trace
// ID (incoming X-Radix-Trace-Id or generated) is forwarded to the
// backend and echoed on the response; the router records route,
// attempt:<backend>, and backoff:<backend> spans into a bounded trace
// ring served by GET /debug/traces, and RouterConfig.SlowRequest logs
// slow routed requests with their span breakdown. The retention contract
// is the serve tier's: a reply's trace is in the ring by the time its last
// byte arrives. handleInfer files it in a deferred call, before it
// returns, and the relayed or router-made reply carries no Content-Length,
// so its end (the whole of a short reply, buffered; the terminating chunk
// of a long one) leaves only at return. Setting Content-Length on a relayed
// reply would let a long one's last byte leave during the copy, and breaks
// the contract unless the trace is filed before the copy. GET /metrics adds
// per-backend attempt-latency histograms and — because every obs
// histogram shares one bucket ladder — re-exports the fleet's serve-tier
// histograms summed bucket-wise as radixrouter_model_* families, exactly
// the histogram a single node seeing all traffic would have exported.
// RouterConfig.Pprof mounts net/http/pprof on the router mux.
//
// Model state — one record per model is the router's one source of truth
// for it: the replica count, the register request a scale-out registers,
// the shed class and the model's own rotation cursor. Routing reads it and
// never makes one; a model without one routes with the default replicas, no
// shed, and its walk from its first healthy owner. GET /v1/autoscale reports
// the record's replica count, the one routing uses after the cycle's actuation.
//
// Control plane — the router fans the serve-tier admin verbs out
// fleet-wide, so models move without restarting backends: POST /v1/models
// registers a model on its ring-intended replicas (placement-aware),
// while PUT and DELETE /v1/models/{name} reach every backend currently
// reporting the model (discovered by scraping /v1/models), because a
// reload or removal must hit every live copy — including copies parked on
// ring successors by earlier fleet changes. Per-backend outcomes are
// returned verbatim; partial failures answer 502 with the detail, and
// placement drift in the interim is absorbed by the 404-failover path.
package cluster
