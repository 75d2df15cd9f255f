package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for data-parallel block loops. Unlike
// Blocks, which spawns fresh goroutines per call, a Pool keeps its workers
// parked between calls, so a caller that dispatches often (the inference
// engine: once per batch, each block carried through the whole layer stack)
// pays goroutine startup once per process, not once per call. A steady-state
// Run performs no heap allocations.
//
// Scheduling is dynamic: [0, n) is cut into contiguous chunks and workers
// claim chunks from a shared atomic cursor, so uneven block costs balance
// automatically. The calling goroutine participates as one of the workers.
//
// The parked workers serve one Run at a time: a Run issued while another
// is in flight — including a nested Run issued from inside a worker
// function — falls back to spawn-per-call goroutines rather than
// deadlocking, so concurrent callers stay parallel.
type Pool struct {
	workers    int
	trackProcs bool // GOMAXPROCS-sized pool: honor later GOMAXPROCS reductions
	wake       chan struct{}
	mu         sync.Mutex // serializes Runs; TryLock-guarded to stay deadlock-free
	wg         sync.WaitGroup

	// Current job, valid between the wake sends and wg.Wait of one Run.
	// Helpers observe these fields via the happens-before edge of the wake
	// channel send.
	fn    func(lo, hi int)
	n     int
	chunk int
	next  atomic.Int64
}

// NewPool returns a pool with the given number of workers (≤ 1 selects
// runtime.GOMAXPROCS(0), re-read on every Run so later GOMAXPROCS
// reductions — e.g. `go test -cpu 8,1` — are honored). workers−1 helper
// goroutines are started and parked immediately; they run until Close.
func NewPool(workers int) *Pool {
	track := workers < 1
	if track {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, trackProcs: track, wake: make(chan struct{}, workers)}
	for i := 0; i < workers-1; i++ {
		go p.helper()
	}
	return p
}

// Workers returns the pool's worker count (helpers plus the caller).
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) helper() {
	for range p.wake {
		p.runBlocks()
		p.wg.Done()
	}
}

// runBlocks claims and executes chunks until the cursor passes n.
func (p *Pool) runBlocks() {
	n, chunk, fn := p.n, p.chunk, p.fn
	for {
		b := p.next.Add(1) - 1
		lo := int(b) * chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// Run executes fn over contiguous disjoint blocks covering [0, n), possibly
// in parallel. fn must be safe to call concurrently for disjoint ranges.
// grain is the minimum block length worth scheduling — loops smaller than
// two grains run serially on the caller — and also the scheduling quantum:
// every block is a multiple of grain long except the final one, so a
// caller that processes items in fixed-size groups (e.g. the inference
// engine's eight-row gather blocks) can keep its groups whole by passing the
// group size; that holds on the busy fallback too. Run does not allocate, so it is safe inside allocation-free
// hot paths.
func (p *Pool) Run(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := p.workers
	if p.trackProcs {
		if g := runtime.GOMAXPROCS(0); g < w {
			w = g
		}
	}
	if max := n / grain; w > max {
		w = max
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	// When the pool is busy (a concurrent Run, or a nested Run from a
	// worker — taking mu here would deadlock), fall back to spawn-per-call
	// goroutines: still fully parallel, just without the parked workers.
	if !p.mu.TryLock() {
		spawnBlocks(n, grain, w, fn)
		return
	}
	// Four chunks per worker balances uneven block costs without excessive
	// cursor contention; rounded up to a whole number of grains.
	chunk := (n + 4*w - 1) / (4 * w)
	if chunk < grain {
		chunk = grain
	} else if r := chunk % grain; r != 0 {
		chunk += grain - r
	}
	p.fn, p.n, p.chunk = fn, n, chunk
	p.next.Store(0)
	helpers := w - 1
	p.wg.Add(helpers)
	// Deferred so that a panicking fn cannot leave the pool locked (which
	// would silently degrade every later Run to serial). Helpers are waited
	// for even on panic: they may still be reading the job fields.
	defer func() {
		p.wg.Wait()
		p.fn = nil
		p.mu.Unlock()
	}()
	for i := 0; i < helpers; i++ {
		p.wake <- struct{}{}
	}
	p.runBlocks()
}

// spawnBlocks is the pool-less fallback: w fresh goroutines, one contiguous
// block each, exactly the pre-pool Blocks design but for the cuts, which keep
// Run's promise of grain multiples (w ≤ n/grain, so no block is empty). Used
// when the pool's parked workers are already occupied, so concurrent callers
// (e.g. data-parallel trainer shards, engines sharing Shared) keep their
// parallelism instead of degrading to a serial loop.
func spawnBlocks(n, grain, w int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		lo := k * n / w / grain * grain
		hi := n
		if k < w-1 {
			hi = (k + 1) * n / w / grain * grain
		}
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Close releases the helper goroutines. The pool must be idle; Run must not
// be called after Close.
func (p *Pool) Close() { close(p.wake) }

// Quota returns the worker count each of parts equal consumers should give
// its private pool so that together they roughly fill the machine:
// GOMAXPROCS(0)/parts, floored, never below 1. The serving layer uses it to
// split the machine among the engines of a warm pool — at high engine
// counts each engine runs its batches on the caller alone (quota 1) and
// parallelism comes from concurrent batches instead, avoiding
// oversubscription of the cores.
func Quota(parts int) int {
	if parts < 1 {
		parts = 1
	}
	q := runtime.GOMAXPROCS(0) / parts
	if q < 1 {
		q = 1
	}
	return q
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, started on first use with
// GOMAXPROCS workers. Blocks and BlocksGrain dispatch through it, so every
// block-parallel kernel in the library shares one set of parked workers.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}
