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
// The facade exports what the programs under examples/ call:
//
//   - the generator, its density theory and the configuration search
//     (internal/radix, internal/core), with exact big-integer path counts
//     and layered-graph isomorphism (internal/topology)
//   - the topology's `layer src dst` TSV form (internal/graphio)
//   - the Graph Challenge–style sparse inference engine (internal/infer)
//   - the inference service: a live model registry with micro-batching,
//     its HTTP server, SLO burn-rate objectives and request traces
//     (internal/serve, internal/obs)
//
// The multi-node router, the kernels and the remaining internals are used
// through the programs under cmd/. See README.md for the architecture and
// bench_test.go for the index of reproduced figures and experiments.
package radixnet

import (
	"io"
	"math/big"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/graphio"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/obs/slo"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
	"github.com/radix-net/radixnet/internal/topology"
)

// System is a mixed-radix numeral system N = (N1, …, NL), Ni ≥ 2.
type System = radix.System

// Config is a full RadiX-Net parameterization: systems N* plus dense shape D.
type Config = core.Config

// Topology is a feedforward neural network topology (FNNT): a layered graph
// represented by its adjacency submatrices.
type Topology = topology.FNNT

// DensityCell is one (µ, d) cell of the Fig. 7 density surface.
type DensityCell = core.DensityCell

// MustSystem validates radices (each ≥ 2) and returns the numeral system;
// it panics on invalid input, so it is meant for literals.
func MustSystem(radices ...int) System { return radix.MustNew(radices...) }

// NewConfig assembles and validates a RadiX-Net configuration. A nil shape
// selects the all-ones dense shape (a pure extended mixed-radix topology).
func NewConfig(systems []System, shape []int) (Config, error) {
	return core.NewConfig(systems, shape)
}

// Build generates the RadiX-Net topology of cfg by the paper's Fig. 6
// algorithm.
func Build(cfg Config) (*Topology, error) { return core.Build(cfg) }

// Density returns the exact density of the configured topology in closed
// form (eq. 4 of the paper) without building it.
func Density(cfg Config) float64 { return core.Density(cfg) }

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

// SearchSpec describes a desired topology: width, density, depth.
type SearchSpec = core.SearchSpec

// Candidate is one configuration proposed by Search.
type Candidate = core.Candidate

// Search enumerates mixed-radix factorizations of the requested width and
// returns configurations whose exact density lands within tolerance of the
// target, ranked by density error then radix variance.
func Search(spec SearchSpec) ([]Candidate, error) { return core.Search(spec) }

// Isomorphic reports whether two topologies are isomorphic as layered
// graphs (related by per-layer node relabelings), returning witnessing
// permutations. maxNodes bounds the search (0 = unbounded).
func Isomorphic(g, h *Topology, maxNodes int) ([][]int, bool) {
	return topology.IsomorphicByLayerPermutation(g, h, maxNodes)
}

// WriteTSV writes the topology as `layer src dst` lines.
func WriteTSV(w io.Writer, g *Topology) error { return graphio.WriteTSV(w, g) }

// InferEngine is the Graph Challenge–style batched sparse inference engine:
// a fused, allocation-free kernel stack applying Y ← min(cap, ReLU(Y·Wl+bl))
// across the layer stack (experiment E10). See internal/infer for the
// kernel design.
type InferEngine = infer.Engine

// InferFromConfig generates the RadiX-Net of cfg and wraps it in an
// inference engine with Graph Challenge weighting.
func InferFromConfig(cfg Config) (*InferEngine, error) { return infer.FromConfig(cfg) }

// Registry loads and owns served models: it builds engines by
// configuration, keeps a pool of warm engine instances per model, and runs
// each model's micro-batching scheduler. The registry is live — models can
// be registered, atomically hot-reloaded (Reload swaps the whole engine
// pool as a unit once in-flight batches drain), and unregistered at
// runtime.
type Registry = serve.Registry

// ServePolicy bounds a model's micro-batching scheduler: batch size cap,
// latency budget and queue depth (the backpressure threshold); a model runs
// one batch worker per engine. Zero fields select defaults.
type ServePolicy = serve.Policy

// NewRegistry returns an empty model registry whose registrations default
// to the given batching policy, with the default QoS configuration
// (interactive/batch/background weighted 8/2/1).
func NewRegistry(pol ServePolicy) *Registry { return serve.NewRegistry(pol) }

// Server exposes a Registry over HTTP: POST /v1/infer with dynamic
// micro-batching and explicit backpressure (429), GET /v1/models, GET
// /healthz, GET /metrics, and the model control plane (POST /v1/models,
// PUT and DELETE /v1/models/{name}), with graceful shutdown. See README.md
// "Serving" and "Model administration" for the API and semantics.
type Server = serve.Server

// ServerOptions tunes a Server's observability surface: opt-in pprof
// endpoints, the slow-request log threshold, and the objectives of the
// SLO burn-rate engine (SLOObjective).
type ServerOptions = serve.ServerOptions

// NewServerOpts wraps the registry in an HTTP inference server bound to
// addr, with the given observability options.
func NewServerOpts(reg *Registry, addr string, opts ServerOptions) *Server {
	return serve.NewServerOpts(reg, addr, opts)
}

// SLOObjective is one service-level objective: a latency bound (or the
// error-rate kind) with a target success ratio, scoped to a model
// and/or QoS class ("*" or empty are wildcards). ServerOptions.SLO lists
// the objectives that arm a Server's burn-rate engine, which judges them
// over a 5 m and a 1 h window.
type SLOObjective = slo.Objective

// SLOView is the GET /v1/slo response body: the window configuration
// and every objective's status — fast/slow burn rates, the remaining
// error budget, and the resulting state ("ok", "warn", or "violated").
type SLOView = slo.View

// ParseSLOObjectives parses -slo style MODEL:CLASS:LATENCY:TARGET_PCT
// specs, e.g. "*:interactive:250ms:99" or "e10::error:99.9".
func ParseSLOObjectives(specs []string) ([]SLOObjective, error) {
	return slo.ParseObjectives(specs)
}

// Trace is one request's record: identity, attribution, and the
// per-stage span breakdown served by GET /debug/traces.
type Trace = obs.Trace

// HeaderTraceID is the HTTP header carrying a request's trace ID
// end-to-end through the router to the backend and back.
const HeaderTraceID = obs.HeaderTraceID

// HeaderSpans is the HTTP response header carrying a backend's span
// breakdown in compact wire form, which the router grafts into its own
// trace.
const HeaderSpans = obs.HeaderSpans
