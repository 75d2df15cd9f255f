// Package infer implements a Graph Challenge–style sparse deep neural
// network inference engine: repeated application of
//
//	Y ← min(cap, ReLU(Y·Wl + bl))
//
// over a stack of sparse weight matrices, batched over input rows and
// parallelized over row blocks. RadiX-Net's flagship downstream use is
// generating the synthetic networks for the MIT/IEEE/Amazon Sparse DNN
// Graph Challenge; this engine makes that workload executable here
// (experiment E10).
//
// The hot path is a fused, allocation-free kernel stack. Each layer is
// precomputed into a CSC (transposed) sparse.Kernel so a dense activation
// row is computed by gathers — one in-edge dot product per output element —
// instead of scatters, eliminating random writes; rows whose activations
// are mostly zero instead take the CSR scatter dual, whose zero-input skip
// does only the work the live activations require (the engine chooses per
// row from the exact activation count the previous layer's epilogue
// produced for free). The bias + threshold-ReLU + cap epilogue is fused into
// the multiply loop, and rows whose activations go all-zero mid-stack are
// skipped by the layers that follow.
//
// Rows of a batch never interact, so a batch is one dispatch on the
// persistent parallel.Shared worker pool, not one per layer: each worker
// carries contiguous tiles of at most tileRows rows depth-first through the
// whole stack. A tile's activations ping-pong between two buffers of a
// scratch set private to the worker running it — the engine holds at most one
// set per pool worker, whatever the batch size — and only the last layer
// writes the batch-sized output, so an N-layer forward pass performs O(1)
// allocations (zero in steady state) and meets no barrier between layers.
package infer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/nn"
	"github.com/radix-net/radixnet/internal/parallel"
	"github.com/radix-net/radixnet/internal/sparse"
	"github.com/radix-net/radixnet/internal/topology"
)

// ErrBusy is returned by Infer when another Infer call is already in
// flight on the same engine. Engines share their output and scratch across
// calls and are therefore single-flight by contract; concurrent callers must use
// one engine per worker (see Clone) — the serving layer's engine pools are
// built on this guarantee.
var ErrBusy = errors.New("infer: engine busy: concurrent Infer on a shared engine (use one engine per worker; see Engine.Clone)")

// Engine holds the weight stack of a sparse feedforward network prepared
// for batched threshold-ReLU inference.
type Engine struct {
	layers []*sparse.Matrix
	bias   []float64 // one uniform bias per layer
	cap    float64   // activation ceiling; 0 disables clamping

	kernels []*sparse.Kernel      // CSC gather form of each layer
	radix   []*sparse.RadixKernel // verified stride plans, nil on the CSC family
	kind    KernelKind            // kernel family the engine was built with
	cols    []layerKernel         // each layer bound to that family; immutable
	steps   []layerKernel         // what each layer runs, cols[l] or its quotient; clones share the array
	pool    *parallel.Pool
	run     func(lo, hi int) // bound once; dispatched once per batch on the pool
	inUse   atomic.Bool      // single-flight guard for the output and scratch

	// prof, when non-nil, samples per-layer kernel timings (see
	// profile.go). Shared across clones so a warm pool aggregates into
	// one set of tallies; nil costs one atomic load per Infer.
	prof atomic.Pointer[Profiler]

	// Reusable per-batch state, sized by ensure. The caller's batch is read
	// directly (and only read) by the first layer step — Infer never writes
	// to the caller's storage, and drops the reference before returning.
	batch   int
	out     []float64 // the last layer's output, batch rows: all that is batch-sized
	outView *sparse.Dense
	stage   []float64 // the input's copy, when it is out and tiles would overwrite unread rows
	rowNNZ  []int32   // per-row nonzero count of the input

	// The batch in flight, read by every tile across the worker pool.
	in    []float64    // the caller's rows, or their staged copy
	plan  []layerNeeds // what each layer runs on this batch
	timed bool         // a sampled batch: tiles read the clock between layers
	laps  []lap        // where they add up what they read

	mu      sync.Mutex
	free    []*tileSet // idle scratch sets; with those in use, at most one per pool worker
	setRows int        // rows the sets are sized for: min(tileRows, largest batch seen)
}

// tileRows is the most rows a tile carries through the stack at once: whole
// gather blocks, and two of them deep in scratch stay cache-resident under the
// widest layers served.
const tileRows = 32

// tileSet is the scratch one worker runs its tiles on, a row addressed by its
// position in the tile.
type tileSet struct {
	buf     [2][]float64    // ping-pong activations: layer l writes buf[l&1]
	scratch []float64       // one row's class vector, before a quotient expands it
	nnz     [tileRows]int32 // per-row activation count after the last layer step; 0 is a dead row
	t0      time.Time       // the last clock read of a sampled batch
}

// cursor is the layer a tile is on.
type cursor struct {
	k          layerKernel
	need       layerNeeds // k's, as planned for this batch
	in, out    []float64  // from the tile's first row on
	inW, outW  int        // row strides; need.in and need.out may be less
	bias, clip float64
}

// New builds an engine from explicit weight matrices and per-layer biases.
// cap ≤ 0 disables the activation ceiling. The engine builds a CSC gather
// kernel per layer: its index arrays are the layer pattern's (layers given
// the same *sparse.Pattern store them once), its values a reordered copy of
// the matrix's — or the matrix's own constant run while the layer still reads
// one (sparse.ConstantMatrices). The matrices are retained as the
// authoritative weights. Callers that mutate weight values after construction
// (through a Matrix.Values() slice, whenever they obtained it) must call
// RefreshWeights before the next Infer, or the kernels keep computing with
// the construction-time values.
func New(layers []*sparse.Matrix, bias []float64, cap float64) (*Engine, error) {
	if len(layers) == 0 {
		return nil, errors.New("infer: need at least one layer")
	}
	if len(bias) != len(layers) {
		return nil, fmt.Errorf("infer: %d biases for %d layers", len(bias), len(layers))
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].Cols() != layers[i].Rows() {
			return nil, fmt.Errorf("infer: layer %d is %dx%d but layer %d has %d rows",
				i-1, layers[i-1].Rows(), layers[i-1].Cols(), i, layers[i].Rows())
		}
	}
	if cap < 0 {
		cap = 0
	}
	e := &Engine{layers: layers, bias: append([]float64(nil), bias...), cap: cap}
	e.kernels = make([]*sparse.Kernel, len(layers))
	steps := make([]layerKernel, len(layers))
	for i, l := range layers {
		k, err := sparse.NewKernel(l)
		if err != nil {
			return nil, fmt.Errorf("infer: layer %d: %w", i, err)
		}
		e.kernels[i] = k
		steps[i] = cscLayer{kern: k, mat: l}
	}
	e.bind(steps)
	e.pool = parallel.Shared()
	e.run = e.tiles
	return e, nil
}

// bind installs the per-layer kernels. Construction only: an engine never
// changes family once it can be called.
func (e *Engine) bind(cols []layerKernel) {
	e.cols, e.steps = cols, append([]layerKernel(nil), cols...)
}

// FromTopology assigns every edge of the FNNT the same weight and every
// layer the same bias — the Graph Challenge convention, where one weight
// serves every edge (FromConfig picks 4/fan-in) and biases are tuned per width
// so activations neither die nor saturate.
func FromTopology(g *topology.FNNT, weight, bias, cap float64) (*Engine, error) {
	pats := make([]*sparse.Pattern, g.NumSubs())
	biases := make([]float64, g.NumSubs())
	for i := range pats {
		pats[i] = g.Sub(i)
		biases[i] = bias
	}
	// One run of weight for the whole stack: every layer's CSR and CSC views
	// read it until that layer's weights are written.
	return New(sparse.ConstantMatrices(pats, weight), biases, cap)
}

// FromConfig generates the RadiX-Net of cfg and wraps it in an engine with
// Graph Challenge weighting: every edge weighs 4/fan-in (1/8 on the
// challenge's fan-in of 32, 1/2 on radix (8,8,8)), bias −0.10, cap 32.
// Kernel selection is KernelAuto: the config proves the layers
// radix-structured, so stride plans are compiled. A layer past the first
// whose values number its columns into fewer classes than columns (on Graph
// Challenge stacks, every layer past the first) runs as a quotient through
// the CSC gather; the others run the structure-aware butterfly kernel
// (FromConfigKernel(cfg, KernelCSC) builds the generic oracle instead).
func FromConfig(cfg core.Config) (*Engine, error) {
	return FromConfigKernel(cfg, KernelAuto)
}

// NumLayers returns the number of weight layers.
func (e *Engine) NumLayers() int { return len(e.layers) }

// TotalNNZ returns the total stored weight count across layers — the "edges
// traversed per input row" figure used for throughput reporting.
func (e *Engine) TotalNNZ() int {
	total := 0
	for _, l := range e.layers {
		total += l.NNZ()
	}
	return total
}

// ensure sizes the reusable buffers for a batch of the given row count. Calls
// that find every buffer already sized perform no allocation. Scratch sets are
// not built here but by the workers that need one; a batch of more rows than
// they were sized for (below tileRows) retires them.
func (e *Engine) ensure(batch int) {
	if batch == e.batch && e.plan != nil {
		return
	}
	e.batch = batch
	if e.plan == nil {
		e.plan = make([]layerNeeds, len(e.steps))
	}
	if rows := min(batch, tileRows); rows > e.setRows {
		e.setRows, e.free = rows, nil
	}
	if cap(e.rowNNZ) < batch {
		e.rowNNZ = make([]int32, batch)
	}
	e.rowNNZ = e.rowNNZ[:batch]
	lastW := e.layers[len(e.layers)-1].Cols()
	if need := batch * lastW; cap(e.out) < need {
		e.out = make([]float64, need)
	}
	e.outView, _ = sparse.DenseFromSlice(batch, lastW, e.out[:batch*lastW])
}

// tiles is the pool's body: it carries batch rows [lo, hi) through every
// layer, tileRows at a time, on one scratch set. The idle list is empty at most
// once per worker and height, so steady state allocates nothing.
func (e *Engine) tiles(lo, hi int) {
	var s *tileSet
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		s, e.free = e.free[n-1], e.free[:n-1]
	}
	e.mu.Unlock()
	if s == nil {
		maxW := 0 // the widest output a tile keeps to itself: the last layer's is not
		for _, l := range e.layers[:len(e.layers)-1] {
			maxW = max(maxW, l.Cols())
		}
		// The only scratch a step declares is a quotient's class vector, which
		// is shorter than the row it stands for.
		s = &tileSet{scratch: make([]float64, max(maxW, e.layers[len(e.layers)-1].Cols()))}
		s.buf[0], s.buf[1] = make([]float64, e.setRows*maxW), make([]float64, e.setRows*maxW)
	}
	for ; lo < hi; lo += tileRows {
		e.tile(s, lo, min(hi, lo+tileRows))
	}
	e.mu.Lock()
	e.free = append(e.free, s)
	e.mu.Unlock()
}

// tile runs batch rows [lo, hi) through the whole stack before any other row
// of the batch needs to start: rows never interact, so nothing is awaited
// between layers. Layer 0 reads the batch in place, the last layer writes the
// rows' slots of the output, and everything between lives in s, addressed by
// position in the tile — a row's slot in a shared buffer would move with the
// layer width, into rows another tile has yet to read.
//
//radix:hotpath
func (e *Engine) tile(s *tileSet, lo, hi int) {
	n, w0 := hi-lo, e.layers[0].Rows()
	copy(s.nnz[:n], e.rowNNZ[lo:hi])
	if e.timed {
		e.lap(s, -1, 0)
	}
	cur := cursor{in: e.in[lo*w0:], inW: w0, clip: e.cap}
	for l, k := range e.steps {
		cur.k, cur.need, cur.bias = k, e.plan[l], e.bias[l]
		cur.out, cur.outW = s.buf[l&1], e.layers[l].Cols()
		if l == len(e.steps)-1 {
			cur.out = e.out[lo*cur.outW:]
		}
		rows := e.layerStep(s, &cur, n)
		if e.timed {
			e.lap(s, l, rows)
		}
		cur.in, cur.inW = cur.out, cur.outW
	}
	// Rows that died mid-stack were skipped from then on; their slots in the
	// output hold stale data from earlier calls. Zero them.
	for i, live := range s.nnz[:n] {
		if live == 0 {
			clear(cur.out[i*cur.outW : (i+1)*cur.outW])
		}
	}
}

// layerStep runs the tile's n rows through the cursor's layer — one fused
// multiply + epilogue pass per live row, recording the row's new activation
// count — and returns how many were live. Mostly-zero rows take the layer's
// scatter, whose zero-input skip does only the work the row's live activations
// require, unless the step is a quotient, which gathers every row. Dense rows
// take its gather (every output written once, no random writes), blocked as
// wide as the layer allows so each weight is loaded once per block; what is
// left at the end of the tile runs widest form first — one quad if four or
// more rows remain, then single rows. A dead row stays zero through a
// non-positive bias and is skipped; a positive one resurrects it: its image is
// the constant clamp(relu(bias)) > 0 in every element, filled directly (its
// gather would be a no-op over zeros).
//
//radix:hotpath
func (e *Engine) layerStep(s *tileSet, cur *cursor, n int) (rows int) {
	need := cur.need
	var blk rowBlock
	var at [8]int
	q := 0
	for i := 0; i < n; i++ {
		live := int(s.nnz[i])
		if live == 0 {
			if cur.bias > 0 {
				phi := cur.bias
				if cur.clip > 0 && phi > cur.clip {
					phi = cur.clip
				}
				row := cur.out[i*cur.outW : i*cur.outW+need.out]
				for c := range row {
					row[c] = phi
				}
				s.nnz[i] = int32(cur.outW)
			}
			continue
		}
		rows++
		in := cur.in[i*cur.inW : i*cur.inW+need.in]
		out := cur.out[i*cur.outW : i*cur.outW+need.out]
		if live*2 < cur.inW && !need.quotient {
			s.nnz[i] = int32(cur.k.scatter(out, in, cur.bias, cur.clip))
			continue
		}
		at[q], blk.in[q], blk.out[q] = i, in, out
		q++
		if q == need.block {
			gatherBlock(s, cur, &blk, &at, 0, q)
			q = 0
		}
	}
	for t := 0; t < q; {
		w := 1
		if q-t >= 4 {
			w = 4
		}
		gatherBlock(s, cur, &blk, &at, t, w)
		t += w
	}
	return rows
}

// gatherBlock runs rows [t, t+w) of blk through the cursor's w-row gather and
// records their activation counts.
//
//radix:hotpath
func gatherBlock(s *tileSet, cur *cursor, blk *rowBlock, at *[8]int, t, w int) {
	var sub rowBlock
	copy(sub.in[:], blk.in[t:t+w])
	copy(sub.out[:], blk.out[t:t+w])
	nnz := cur.k.gather(sub, w, s.scratch[:cur.need.scratch], cur.bias, cur.clip)
	for j, i := range at[t : t+w] {
		s.nnz[i] = int32(nnz[j])
	}
}

// QuotientLayers reports how many layers run as quotients as the weights
// stand: layers past the first whose columns their values number into fewer
// classes than columns — every layer past the first of a config-built Graph
// Challenge stack; 0 on a CSC engine, which never numbers. Writing a layer's
// weights (a reload that ships trained ones) yields more classes, and where
// that leaves one per column, a per-column step.
func (e *Engine) QuotientLayers() (n int) {
	for _, k := range e.steps {
		if k.needs().quotient {
			n++
		}
	}
	return n
}

// Infer runs the batch through every layer with threshold-ReLU semantics
// and returns the final activations. The input batch is never mutated.
//
// The returned matrix is a view into the engine's output buffer: it is valid
// until the next Infer or InferCategories call on the same engine, which
// overwrites it (clone it to keep it). This is what
// makes the steady-state forward pass allocation-free. Engines are not safe
// for concurrent Infer calls: a call that overlaps another returns ErrBusy
// rather than corrupting the shared scratch; use Clone for per-worker
// engines.
func (e *Engine) Infer(y0 *sparse.Dense) (*sparse.Dense, error) {
	if !e.inUse.CompareAndSwap(false, true) {
		return nil, ErrBusy
	}
	defer e.inUse.Store(false)
	return e.infer(y0)
}

// infer is the body of Infer, running under the single-flight guard.
func (e *Engine) infer(y0 *sparse.Dense) (*sparse.Dense, error) {
	if y0.Cols() != e.layers[0].Rows() {
		return nil, fmt.Errorf("infer: batch width %d, first layer expects %d", y0.Cols(), e.layers[0].Rows())
	}
	batch := y0.Rows()
	e.ensure(batch)

	// Scan the input, counting each row's nonzeros, which seeds the
	// gather/scatter choice for layer 0 and marks the rows that start dead: a
	// row that is already all-zero maps to clamp(relu(bias)) per element,
	// which layerStep fills in without a kernel. The first layer step reads
	// the caller's storage directly — no layer ever writes
	// its input, so staging a private copy would only add a batch-sized
	// memmove to every call.
	w0 := y0.Cols()
	in := y0.Data()[:batch*w0]
	if len(in) > 0 && &in[0] == &e.out[0] && (w0 != e.outView.Cols() || len(e.steps) == 1) {
		// Chained inference: the caller handed the engine's own output view
		// back as input. At equal widths a row's input is the slot its own
		// tile writes, and only after reading it into scratch; at unequal
		// ones (or when the first layer is the last) a tile would write over
		// rows not yet read, so the batch is staged.
		in = append(e.stage[:0], in...)
		e.stage = in[:0]
	}
	for b := 0; b < batch; b++ {
		row := in[b*w0 : (b+1)*w0]
		nnz := 0
		for _, v := range row {
			// Branchless v != 0: shifting out the sign bit makes ±0 read as
			// zero and everything else (including NaN) as live, exactly the
			// float comparison's semantics, without a data-dependent branch
			// on every staged element.
			y := math.Float64bits(v) << 1
			nnz += int((y | -y) >> 63)
		}
		e.rowNNZ[b] = int32(nnz)
	}
	// The weights decide what each layer runs: they change under
	// RefreshWeights, through any clone.
	for l, k := range e.steps {
		e.plan[l] = k.needs()
	}
	// One pointer load decides whether this batch is profiled; when it is,
	// its tiles time each layer and report splits the dispatch by what they
	// read.
	prof := e.prof.Load()
	e.in, e.timed = in, prof != nil && prof.sample()
	var t0 time.Time
	if e.timed {
		if e.laps == nil {
			e.laps = make([]lap, len(e.steps))
		}
		t0 = time.Now()
	}
	// One dispatch for the whole batch. The grain keeps pool chunks, hence
	// tiles, at whole gather blocks, so the widest form engages even when many
	// workers shrink the chunks.
	e.pool.Run(batch, e.plan[0].block, e.run)
	if e.timed {
		e.report(prof, time.Since(t0))
	}
	// Layer 0 read the caller's storage in place; drop the reference so the
	// engine never pins a caller batch between calls.
	e.in = nil
	return e.outView, nil
}

// InferCategories runs Infer and returns, per input row, whether the row
// ended with any positive activation (the Graph Challenge's category
// criterion) plus the index of its strongest neuron. The single-flight
// guard is held until the scan over the output view finishes, so an
// overlapping Infer gets ErrBusy instead of overwriting the view mid-scan.
func (e *Engine) InferCategories(y0 *sparse.Dense) (active []bool, argmax []int, err error) {
	if !e.inUse.CompareAndSwap(false, true) {
		return nil, nil, ErrBusy
	}
	defer e.inUse.Store(false)
	y, err := e.infer(y0)
	if err != nil {
		return nil, nil, err
	}
	active = make([]bool, y.Rows())
	argmax = nn.Argmax(y)
	for r := 0; r < y.Rows(); r++ {
		row := y.RowSlice(r)
		for _, v := range row {
			if v > 0 {
				active[r] = true
				break
			}
		}
	}
	return active, argmax, nil
}

// ReferenceInfer is a deliberately simple single-threaded implementation of
// the same semantics, used to validate Infer in tests.
func (e *Engine) ReferenceInfer(y0 *sparse.Dense) (*sparse.Dense, error) {
	if y0.Cols() != e.layers[0].Rows() {
		return nil, fmt.Errorf("infer: batch width %d, first layer expects %d", y0.Cols(), e.layers[0].Rows())
	}
	y := y0.Clone()
	for i, w := range e.layers {
		next, err := sparse.NewDense(y.Rows(), w.Cols())
		if err != nil {
			return nil, err
		}
		for r := 0; r < y.Rows(); r++ {
			for k := 0; k < y.Cols(); k++ {
				xv := y.At(r, k)
				if xv == 0 {
					continue
				}
				w.RowEntries(k, func(c int, wv float64) {
					next.Set(r, c, next.At(r, c)+xv*wv)
				})
			}
			for c := 0; c < next.Cols(); c++ {
				v := next.At(r, c) + e.bias[i]
				if v < 0 {
					v = 0
				} else if e.cap > 0 && v > e.cap {
					v = e.cap
				}
				next.Set(r, c, v)
			}
		}
		y = next
	}
	return y, nil
}

// RefreshWeights resyncs the kernels with the current values of the layer
// matrices. Call it after mutating weights through Matrix.Values(); Infer
// otherwise keeps using the values the kernels last saw. A layer whose matrix
// left the stack's constant run gets CSC value storage of its own here; layers
// that were not written keep reading the run. The radix kernels read the
// matrices and CSC kernels on every call, so a radix engine only numbers the
// values again, rebinding the steps of every clone.
func (e *Engine) RefreshWeights() {
	for i, l := range e.layers {
		// Same pattern, same engine: Refresh cannot fail here.
		_ = e.kernels[i].Refresh(l)
	}
	if e.radix != nil {
		e.number()
	}
}

// Footprint reports the index and value storage the engine's weight stack
// holds, shared arrays counted once: what every clone of this engine shares,
// and what a second engine built from the same config would hold again.
func (e *Engine) Footprint() sparse.Footprint {
	return sparse.StackFootprint(e.layers, e.kernels)
}

// Clone returns an engine sharing this engine's weight stack — the layer
// matrices, biases, CSC and radix kernels, compiled stride plans and kernel
// family, whatever storage those in turn share between layers — with fresh,
// independent scratch state (output, tile scratch sets, single-flight
// guard). A pool of clones serves concurrent batches without duplicating the
// model: N clones cost N sets of activation buffers, not N
// copies of the weights. Clones inherit the parent's worker pool; use
// SetPool to give each its own parallelism budget. Weight mutation
// (RefreshWeights, PerturbWeights) through any clone is visible to all of
// them and must not race an in-flight Infer — serving treats weights as
// frozen after the pool is built.
func (e *Engine) Clone() *Engine {
	c := &Engine{layers: e.layers, bias: e.bias, cap: e.cap, kernels: e.kernels,
		radix: e.radix, kind: e.kind, cols: e.cols, steps: e.steps, pool: e.pool}
	c.run = c.tiles
	c.prof.Store(e.prof.Load()) // clones aggregate into the parent's profiler
	return c
}

// SetPool directs the engine's batches at the given worker pool
// instead of the process-wide parallel.Shared pool (nil restores the shared
// pool). Engine pools in the serving layer give each warm engine a private
// pool sized parallel.Quota(poolSize) so concurrent batches split the
// machine instead of oversubscribing it. Must not be called while an Infer
// is in flight.
func (e *Engine) SetPool(p *parallel.Pool) {
	if p == nil {
		p = parallel.Shared()
	}
	e.pool = p
}

// PerturbWeights adds uniform noise in ±scale to every stored weight,
// seeded, and resyncs the kernels; used by robustness tests and benchmarks to
// leave the all-equal weight special case (a perturbed layer numbers into one
// class per column, so QuotientLayers drops to 0, and every layer now stores
// its own values in each order it runs).
func (e *Engine) PerturbWeights(scale float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, l := range e.layers {
		vals := l.Values()
		for j := range vals {
			vals[j] += (rng.Float64()*2 - 1) * scale
		}
	}
	e.RefreshWeights()
}
