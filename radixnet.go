// Package radixnet is the public API of a from-scratch Go implementation of
// RadiX-Nets — the deterministically sparse, symmetric, path-connected deep
// neural network topologies of Robinett & Kepner, "RadiX-Net: Structured
// Sparse Matrices for Deep Neural Networks" (2019, arXiv:1905.00416).
//
// A RadiX-Net is defined by an ordered set N* of mixed-radix numeral
// systems plus a dense "shape" D, and is built in two steps: the mixed-radix
// topologies of the systems are concatenated, then each adjacency submatrix
// is Kronecker-lifted by the all-ones blocks of D. The result provably has
// the same number of paths between every input/output pair (symmetry),
// hence every output depends on every input (path-connectedness), at
// density ≈ µ^{−(d−1)} for mean radix µ and per-system depth d.
//
// Quick start:
//
//	sys := radixnet.MustSystem(2, 2, 2)          // N = (2,2,2), N′ = 8
//	cfg, _ := radixnet.NewConfig([]radixnet.System{sys}, nil)
//	net, _ := radixnet.Build(cfg)                // the Fig. 1 topology
//	m, ok := net.Symmetric()                     // ok, m = 1
//
// The facade re-exports the layered internals:
//
//   - mixed-radix numeral systems (internal/radix)
//   - sparse matrix algebra (internal/sparse)
//   - FNNT topology algebra with exact big-integer path counting
//     (internal/topology)
//   - the RadiX-Net generator, density theory and presets (internal/core)
//   - X-Net / dense / random-prune baselines (internal/xnet)
//   - a training substrate with sparse layers (internal/nn)
//   - a Graph Challenge–style sparse inference engine (internal/infer)
//   - a production inference service: model registry with a live control
//     plane (register/unregister/atomic hot-reload), warm engine pools,
//     dynamic micro-batching, HTTP API (internal/serve)
//   - a multi-node sharding layer: consistent-hash model placement,
//     health-probed backends, failover routing, fleet-wide model
//     administration (internal/cluster)
//   - serialization (internal/graphio)
//
// See README.md for the architecture and bench_test.go for the index of
// reproduced figures and experiments.
package radixnet

import (
	"io"
	"math/big"

	"github.com/radix-net/radixnet/internal/autoscale"
	"github.com/radix-net/radixnet/internal/cluster"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/sparse"
	"github.com/radix-net/radixnet/internal/topology"
)

// System is a mixed-radix numeral system N = (N1, …, NL), Ni ≥ 2.
type System = radix.System

// Config is a full RadiX-Net parameterization: systems N* plus dense shape D.
type Config = core.Config

// Topology is a feedforward neural network topology (FNNT): a layered graph
// represented by its adjacency submatrices.
type Topology = topology.FNNT

// Pattern is a binary CSR sparsity pattern, the representation of one
// adjacency submatrix.
type Pattern = sparse.Pattern

// PathMatrix is an exact big-integer matrix of input→output path counts.
type PathMatrix = sparse.BigDense

// BrainStats summarizes a brain-scale preset against biological targets.
type BrainStats = core.BrainStats

// DensityCell is one (µ, d) cell of the Fig. 7 density surface.
type DensityCell = core.DensityCell

// NewSystem validates radices (each ≥ 2) and returns the numeral system.
func NewSystem(radices ...int) (System, error) { return radix.New(radices...) }

// MustSystem is NewSystem but panics on invalid input; for literals.
func MustSystem(radices ...int) System { return radix.MustNew(radices...) }

// ParseSystem parses "(3,3,4)" or "3,3,4".
func ParseSystem(text string) (System, error) { return radix.Parse(text) }

// UniformSystem returns (base, …, base) with depth digits.
func UniformSystem(base, depth int) (System, error) { return radix.Uniform(base, depth) }

// FactorizeSystem returns a system whose radices multiply to n, from n's
// prime factorization.
func FactorizeSystem(n int) (System, error) { return radix.Factorize(n) }

// NewConfig assembles and validates a RadiX-Net configuration. A nil shape
// selects the all-ones dense shape (a pure extended mixed-radix topology).
func NewConfig(systems []System, shape []int) (Config, error) {
	return core.NewConfig(systems, shape)
}

// Build generates the RadiX-Net topology of cfg by the paper's Fig. 6
// algorithm.
func Build(cfg Config) (*Topology, error) { return core.Build(cfg) }

// MixedRadix returns the mixed-radix topology induced by one numeral system
// (Fig. 1 of the paper).
func MixedRadix(sys System) *Topology { return core.MixedRadix(sys) }

// EMR returns the extended mixed-radix topology: the concatenation of the
// systems' mixed-radix topologies (Lemma 2 of the paper).
func EMR(systems ...System) (*Topology, error) { return core.EMR(systems...) }

// Density returns the exact density of the configured topology in closed
// form (eq. 4 of the paper) without building it.
func Density(cfg Config) float64 { return core.Density(cfg) }

// DensityApproxMu returns the eq. (5) approximation ΔG ≈ µ/N′.
func DensityApproxMu(mu float64, nprime int) float64 { return core.DensityApproxMu(mu, nprime) }

// DensityApproxMuD returns the eq. (6) approximation ΔG ≈ µ^{−(d−1)}.
func DensityApproxMuD(mu, d float64) float64 { return core.DensityApproxMuD(mu, d) }

// DensityMap evaluates the Fig. 7 density surface on a (µ, d) grid.
func DensityMap(muMin, muMax, dMin, dMax int) []DensityCell {
	return core.DensityMap(muMin, muMax, dMin, dMax)
}

// TheoreticalPaths returns the exact input→output path count of the
// configured topology (generalized Theorem 1; erratum E-b, see
// core.TestErratumEbDivisorLastSystem).
func TheoreticalPaths(cfg Config) *big.Int { return cfg.TheoreticalPaths() }

// GraphChallengeConfig returns a configuration emulating the Graph
// Challenge synthetic sparse DNNs at the given width and layer count.
func GraphChallengeConfig(width, layers int) (Config, error) {
	return core.GraphChallengeConfig(width, layers)
}

// UniformConfig returns the zero-variance family: numSystems copies of the
// uniform (base, …, base) system with a constant interior lift.
func UniformConfig(base, depth, numSystems, lift int) (Config, error) {
	return core.UniformConfig(base, depth, numSystems, lift)
}

// BrainConfig builds a configuration whose size and sparsity approximate
// the human brain at the given scale (experiment E11).
func BrainConfig(scale float64, layerCount int) (BrainStats, error) {
	return core.BrainConfig(scale, layerCount)
}

// StreamEdges enumerates every edge of the configured topology without
// materializing it, calling fn(layer, u, v) until it returns false.
func StreamEdges(cfg Config, fn func(layer int, u, v int64) bool) error {
	return core.StreamEdges(cfg, fn)
}

// Dense is a row-major dense float64 matrix: the activation-batch type the
// inference engine consumes and produces (rows = samples).
type Dense = sparse.Dense

// NewDense returns a zeroed rows×cols dense batch.
func NewDense(rows, cols int) (*Dense, error) { return sparse.NewDense(rows, cols) }

// DenseFromSlice wraps a row-major slice of length rows*cols without
// copying.
func DenseFromSlice(rows, cols int, data []float64) (*Dense, error) {
	return sparse.DenseFromSlice(rows, cols, data)
}

// SparseBatch returns n input rows of the given width with nnzPerRow
// seeded-random nonzero activations each — Graph Challenge–style sparse
// inference inputs.
func SparseBatch(n, width, nnzPerRow int, seed int64) (*Dense, error) {
	return dataset.SparseBatch(n, width, nnzPerRow, seed)
}

// InferEngine is the Graph Challenge–style batched sparse inference engine:
// a fused, allocation-free kernel stack applying Y ← min(cap, ReLU(Y·Wl+bl))
// across the layer stack (experiment E10). See internal/infer for the
// kernel design (CSC gather, ping-pong buffers, fused epilogue, active-row
// tracking).
type InferEngine = infer.Engine

// InferFromConfig generates the RadiX-Net of cfg and wraps it in an
// inference engine with Graph Challenge weighting.
func InferFromConfig(cfg Config) (*InferEngine, error) { return infer.FromConfig(cfg) }

// InferKernel names the fused kernel family an engine is built with and
// keeps for life: the generic CSC gather/CSR scatter pair, or the
// structure-aware radix butterfly kernel that replaces index arrays with
// compiled mixed-radix stride plans. The two are bit-identical; radix is
// faster on radix-structured layers.
type InferKernel = infer.KernelKind

const (
	// KernelCSC pins the generic fused CSC/CSR kernels — correct for any
	// sparsity pattern, and the bit-identity oracle for the radix path.
	KernelCSC = infer.KernelCSC
	// KernelRadix demands the structure-aware butterfly kernel; engine
	// construction fails if the config does not compile to verified
	// stride plans.
	KernelRadix = infer.KernelRadix
	// KernelAuto resolves to KernelRadix when the stride plans verify and
	// KernelCSC otherwise — the default for config-built engines.
	KernelAuto = infer.KernelAuto
)

// InferFromConfigKernel is InferFromConfig with explicit kernel selection.
func InferFromConfigKernel(cfg Config, kind InferKernel) (*InferEngine, error) {
	return infer.FromConfigKernel(cfg, kind)
}

// InferFromTopology assigns every edge of the topology the given weight and
// every layer the given bias, with activations capped at cap (≤ 0 disables
// the ceiling).
func InferFromTopology(g *Topology, weight, bias, cap float64) (*InferEngine, error) {
	return infer.FromTopology(g, weight, bias, cap)
}

// ErrEngineBusy is returned by InferEngine.Infer when a call overlaps
// another on the same engine; engines are single-flight (use one per
// worker — the serving layer's engine pools are built on this contract).
var ErrEngineBusy = infer.ErrBusy

// Registry loads and owns served models: it builds engines by
// configuration, keeps a pool of warm engine instances per model, and runs
// each model's micro-batching scheduler. The registry is live — models can
// be registered, atomically hot-reloaded (Reload swaps the whole engine
// pool as a unit once in-flight batches drain), and unregistered at
// runtime.
type Registry = serve.Registry

// Server exposes a Registry over HTTP: POST /v1/infer with dynamic
// micro-batching and explicit backpressure (429), GET /v1/models, GET
// /healthz, GET /metrics, and the model control plane (POST /v1/models,
// PUT and DELETE /v1/models/{name}), with graceful shutdown. See README.md
// "Serving" and "Model administration" for the API and semantics.
type Server = serve.Server

// ServedModel is one registered model: a warm engine pool behind a
// micro-batching scheduler.
type ServedModel = serve.Model

// ServePolicy bounds a model's micro-batching scheduler: batch size cap,
// latency budget, queue depth (the backpressure threshold), and worker
// count. Zero fields select defaults.
type ServePolicy = serve.Policy

// ServedModelInfo describes a registered model and its batching policy.
type ServedModelInfo = serve.ModelInfo

// ErrQueueFull is the serving backpressure signal: the model's bounded
// request queue is at capacity. Mapped to HTTP 429 by Server.
var ErrQueueFull = serve.ErrQueueFull

// ErrServeClosed reports a submission to an unregistered model or a closed
// (draining) registry. Mapped to HTTP 503 by Server.
var ErrServeClosed = serve.ErrClosed

// ErrModelNotRegistered reports an Unregister or Reload of an unknown
// model name. Mapped to HTTP 404 by Server.
var ErrModelNotRegistered = serve.ErrNotRegistered

// ErrModelExists reports a Register under a taken name. Mapped to HTTP 409
// by Server.
var ErrModelExists = serve.ErrAlreadyRegistered

// ErrReloadIncompatible reports a Reload whose new configuration would
// change the model's input or output width. Mapped to HTTP 422 by Server.
var ErrReloadIncompatible = serve.ErrIncompatible

// ServeRequest is the QoS-aware inference request: a multi-row payload
// plus a priority class and an optional deadline. Submit with
// ServedModel.Do; ServedModel.Infer/InferBatch remain as compatibility
// wrappers scheduling the registry's default class.
type ServeRequest = serve.Request

// ServeResponse reports a completed ServeRequest with its canonical class
// and queue-wait/execute timings.
type ServeResponse = serve.Response

// ServeQoSConfig sets a registry's quality-of-service policy: the class
// set with weighted-fair-queuing weights, the default class for unlabeled
// requests, and the cross-model engine quota.
type ServeQoSConfig = serve.QoSConfig

// ErrUnknownClass reports a request naming a class the registry was not
// configured with. Mapped to HTTP 422 by Server.
var ErrUnknownClass = serve.ErrUnknownClass

// ErrDeadlineExceeded reports a request whose deadline passed before its
// rows reached an engine (they are shed at dequeue, never executed).
// Mapped to HTTP 504 by Server.
var ErrDeadlineExceeded = serve.ErrDeadlineExceeded

// NewRegistry returns an empty model registry whose registrations default
// to the given batching policy, with the default QoS configuration
// (interactive/batch/background weighted 8/2/1).
func NewRegistry(pol ServePolicy) *Registry { return serve.NewRegistry(pol) }

// NewRegistryQoS is NewRegistry with an explicit QoS configuration.
func NewRegistryQoS(pol ServePolicy, qos ServeQoSConfig) (*Registry, error) {
	return serve.NewRegistryQoS(pol, qos)
}

// NewServer wraps the registry in an HTTP inference server bound to addr.
func NewServer(reg *Registry, addr string) *Server { return serve.NewServer(reg, addr) }

// ServerOptions tunes a Server's observability surface: opt-in pprof
// endpoints, the slow-request log threshold, the /debug/traces ring
// depth, and the SLO burn-rate engine (SLOConfig). The zero value
// matches NewServer.
type ServerOptions = serve.ServerOptions

// NewServerOpts is NewServer with explicit observability options.
func NewServerOpts(reg *Registry, addr string, opts ServerOptions) *Server {
	return serve.NewServerOpts(reg, addr, opts)
}

// Histogram is a lock-free log-bucketed latency histogram: Observe is
// atomic and allocation-free, snapshots merge bucket-wise across
// instances, and quantiles carry at most 2× resolution error. It backs
// every *_seconds histogram family on the serve and router /metrics.
type Histogram = obs.Histogram

// HistogramSnapshot is a point-in-time copy of a Histogram, with
// Quantile, Merge, and Prometheus text exposition.
type HistogramSnapshot = obs.HistSnapshot

// Trace is one request's record: identity, attribution, and the
// per-stage span breakdown served by GET /debug/traces.
type Trace = obs.Trace

// TraceSpan is one named stage of a request trace (offset + duration).
type TraceSpan = obs.Span

// TraceRing retains the most recent and slowest request traces in a
// bounded lock-free ring.
type TraceRing = obs.TraceRing

// HeaderTraceID is the HTTP header carrying a request's trace ID
// end-to-end through the router to the backend and back.
const HeaderTraceID = obs.HeaderTraceID

// NewTraceID returns a fresh 32-hex-character trace ID.
func NewTraceID() string { return obs.NewTraceID() }

// TraceExemplar is a histogram bucket's exemplar: the most recent trace
// that landed in the bucket, annotated on /metrics in OpenMetrics style
// so a latency spike on a panel resolves to a full span breakdown via
// GET /debug/traces?trace=<id>.
type TraceExemplar = obs.Exemplar

// HeaderSpans is the HTTP response header carrying a backend's span
// breakdown in compact wire form. The router decodes it, rebases the
// offsets by the attempt's start, and grafts the spans into its own
// trace — stitched distributed tracing with no cross-machine clock
// agreement required.
const HeaderSpans = obs.HeaderSpans

// EncodeSpans renders a span breakdown in the HeaderSpans wire form
// (empty for no spans; capped at 64 records).
func EncodeSpans(spans []TraceSpan) string { return obs.EncodeSpans(spans) }

// DecodeSpans parses a HeaderSpans value, rejecting malformed or
// hostile input: bad field counts, non-finite or negative timings,
// oversize payloads.
func DecodeSpans(s string) ([]TraceSpan, error) { return obs.DecodeSpans(s) }

// RebaseSpans returns a copy of spans with every start shifted by
// baseMs — placing backend-local span offsets on the caller's own
// request timeline.
func RebaseSpans(spans []TraceSpan, baseMs float64) []TraceSpan {
	return obs.RebaseSpans(spans, baseMs)
}

// EngineProfile is a point-in-time engine profiling snapshot: total and
// per-layer batch timings and Gedges/s throughput, sampled every Nth
// batch (Registry.SetProfileEvery; ServedModel.Profile reads it) and
// exported as the radixserve_engine_* metric families.
type EngineProfile = infer.ProfileSnapshot

// EngineLayerProfile is one layer's slice of an EngineProfile.
type EngineLayerProfile = infer.LayerProfile

// SLOObjective is one service-level objective: a latency bound (or the
// error-rate kind) with a target success ratio, scoped to a model
// and/or QoS class ("*" or empty are wildcards).
type SLOObjective = slo.Objective

// SLOConfig arms the multi-window SLO burn-rate engine on a Server (via
// ServerOptions.SLO) or Router (RouterConfig.SLO, evaluated against the
// fleet-merged histograms): the objectives plus the fast/slow burn
// windows (defaults 5 m / 1 h).
type SLOConfig = slo.Config

// SLOStatus is one objective's evaluation: fast/slow burn rates, the
// remaining error budget, and the resulting state ("ok", "warn", or
// "violated" — violated only when BOTH windows burn hot, so a brief
// spike alone never pages).
type SLOStatus = slo.Status

// SLOView is the GET /v1/slo response body: the window configuration
// and every objective's SLOStatus.
type SLOView = slo.View

// ParseSLOObjectives parses -slo style MODEL:CLASS:LATENCY:TARGET_PCT
// specs, e.g. "*:interactive:250ms:99" or "e10::error:99.9".
func ParseSLOObjectives(specs []string) ([]SLOObjective, error) {
	return slo.ParseObjectives(specs)
}

// Ring is a consistent-hash ring with virtual nodes: the model-placement
// function of a radixserve fleet. Adding or removing a backend moves only
// ~1/N of the keyspace.
type Ring = cluster.Ring

// NewRing returns an empty ring placing each node at vnodes virtual
// positions (≤ 0 selects the default of 128).
func NewRing(vnodes int) *Ring { return cluster.NewRing(vnodes) }

// Router is the sharding front end over a radixserve fleet: it exposes the
// single-node HTTP API, forwards each inference request to the owning
// healthy backend (placed by a Ring), fails over across replicas, probes
// backend health, merges /v1/models and /metrics across the fleet, and
// fans the model control plane out fleet-wide (register to the ring's
// intended replicas; reload/unregister to every backend reporting the
// model). See cmd/radixrouter and README.md "Clustering".
type Router = cluster.Router

// RouterConfig assembles a Router: listen address, backend addresses,
// replication factor, backoff cap, health-probing knobs, and the
// fleet-scoped SLO burn-rate engine (SLOConfig).
type RouterConfig = cluster.RouterConfig

// ClusterSetConfig tunes a Router's backend set: probe cadence and
// timeout, the consecutive-failure ejection threshold, and ring virtual
// nodes. Zero fields select defaults.
type ClusterSetConfig = cluster.SetConfig

// NewRouter validates the configuration, builds the fleet's ring and
// health-probed backend set, and wires the routing front end.
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.NewRouter(cfg) }

// AutoscalePolicy bounds the router's replica control loop: evaluation
// interval, replica floor/ceiling, per-decision step, cooldown, the
// queue-wait-p90 hysteresis band, the 429-rate trigger, and the QoS class
// shed when an SLO stays violated at the replica ceiling. Set on
// RouterConfig.Autoscale (nil disables the loop); the zero value
// validates to the documented defaults.
type AutoscalePolicy = autoscale.Policy

// AutoscaleModelStats is one model's load observation per evaluation
// interval: fleet-merged queue-wait p90, 429 rate, throughput, replica
// count, and SLO burn state.
type AutoscaleModelStats = autoscale.ModelStats

// AutoscaleDecision is one bounded actuation the controller emits: a
// replica move, a shed installation, or a shed clearance, with the
// triggering reason.
type AutoscaleDecision = autoscale.Decision

// AutoscaleController is the pure decision half of the control loop —
// hysteresis, cooldown, bounded steps, down-streaks — with no clocks or
// cluster state, so its convergence behavior is unit-testable.
type AutoscaleController = autoscale.Controller

// NewAutoscaleController validates the policy (filling defaults) and
// returns a controller; the router drives one per autoscaled fleet.
func NewAutoscaleController(pol AutoscalePolicy) (*AutoscaleController, error) {
	return autoscale.New(pol)
}

// SearchSpec describes a desired topology: width, density, depth.
type SearchSpec = core.SearchSpec

// Candidate is one configuration proposed by Search.
type Candidate = core.Candidate

// Search enumerates mixed-radix factorizations of the requested width and
// returns configurations whose exact density lands within tolerance of the
// target, ranked by density error then radix variance.
func Search(spec SearchSpec) ([]Candidate, error) { return core.Search(spec) }

// OrderedFactorizations enumerates every ordered factorization of n into
// factors ≥ 2, capped at maxLen factors.
func OrderedFactorizations(n, maxLen int) [][]int {
	return core.OrderedFactorizations(n, maxLen)
}

// Isomorphic reports whether two topologies are isomorphic as layered
// graphs (related by per-layer node relabelings), returning witnessing
// permutations. maxNodes bounds the search (0 = unbounded).
func Isomorphic(g, h *Topology, maxNodes int) ([][]int, bool) {
	return topology.IsomorphicByLayerPermutation(g, h, maxNodes)
}

// WriteTSV writes the topology as `layer src dst` lines.
func WriteTSV(w io.Writer, g *Topology) error { return graphio.WriteTSV(w, g) }

// ReadTSV parses the WriteTSV format.
func ReadTSV(r io.Reader) (*Topology, error) { return graphio.ReadTSV(r) }

// WriteDOT renders the topology as a Graphviz digraph.
func WriteDOT(w io.Writer, g *Topology, name string) error { return graphio.WriteDOT(w, g, name) }

// MarshalConfig encodes a configuration as JSON.
func MarshalConfig(cfg Config) ([]byte, error) { return graphio.MarshalConfig(cfg) }

// UnmarshalConfig decodes and validates a configuration from JSON.
func UnmarshalConfig(data []byte) (Config, error) { return graphio.UnmarshalConfig(data) }
