package parallel

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// coverage checks that Run covered [0, n) exactly once via disjoint blocks.
func coverage(t *testing.T, p *Pool, n, grain int) {
	t.Helper()
	hits := make([]int32, n)
	p.Run(n, grain, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d covered %d times (n=%d grain=%d)", i, h, n, grain)
		}
	}
}

func TestPoolCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		for _, n := range []int{1, 2, 3, 16, 255, 256, 1000, 4097} {
			for _, grain := range []int{1, 16, 256} {
				coverage(t, p, n, grain)
			}
		}
		p.Close()
	}
}

func TestPoolBlocksAreGrainMultiples(t *testing.T) {
	// grain is the scheduling quantum: every block except the final one
	// must be a whole number of grains, so callers processing fixed-size
	// groups (the inference engine's gather blocks) keep their groups whole —
	// on the parked workers, and on the goroutines a Run spawns when it finds
	// the pool held by another (engines sharing Shared()).
	p := NewPool(4)
	defer p.Close()
	check := func(what string) {
		t.Helper()
		for _, n := range []int{30, 64, 70, 1000, 4099} {
			var mu sync.Mutex
			type block struct{ lo, hi int }
			var blocks []block
			p.Run(n, 4, func(lo, hi int) {
				mu.Lock()
				blocks = append(blocks, block{lo, hi})
				mu.Unlock()
			})
			covered := 0
			for _, b := range blocks {
				if (b.hi-b.lo)%4 != 0 && b.hi != n {
					t.Fatalf("%s, n=%d: interior block [%d,%d) is not a grain multiple", what, n, b.lo, b.hi)
				}
				if b.lo%4 != 0 || b.lo >= b.hi {
					t.Fatalf("%s, n=%d: block [%d,%d) empty or not grain-aligned", what, n, b.lo, b.hi)
				}
				covered += b.hi - b.lo
			}
			if covered != n || len(blocks) < 2 {
				t.Fatalf("%s, n=%d: %d blocks cover %d", what, n, len(blocks), covered)
			}
		}
	}
	check("parked")
	holding, release := make(chan struct{}), make(chan struct{})
	var held sync.WaitGroup
	held.Add(1)
	go func() {
		defer held.Done()
		var once sync.Once
		p.Run(8, 1, func(lo, hi int) {
			once.Do(func() { close(holding) })
			<-release
		})
	}()
	<-holding
	check("busy")
	close(release)
	held.Wait()
}

func TestPoolZeroAndNegativeN(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	called := false
	p.Run(0, 1, func(lo, hi int) { called = true })
	p.Run(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestPoolNestedRunDegradesSerially(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.Run(64, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// A nested Run must complete (via the spawn fallback) rather
			// than deadlock on the occupied pool.
			p.Run(8, 1, func(l, h int) { total.Add(int64(h - l)) })
		}
	})
	if got := total.Load(); got != 64*8 {
		t.Fatalf("nested runs covered %d iterations, want %d", got, 64*8)
	}
}

func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				p.Run(100, 1, func(lo, hi int) { total.Add(int64(hi - lo)) })
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*50*100 {
		t.Fatalf("concurrent runs covered %d iterations, want %d", got, 8*50*100)
	}
}

// goid extracts the current goroutine id from a stack header; test-only.
func goid() int {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	id, err := strconv.Atoi(strings.Fields(string(buf[:n]))[1])
	if err != nil {
		panic(err)
	}
	return id
}

func TestPoolSurvivesPanickingFn(t *testing.T) {
	// A panic in fn on the calling goroutine must not leave the pool
	// locked: later Runs would silently degrade to serial forever. (A panic
	// on a helper goroutine is unrecoverable and kills the process, as with
	// any goroutine panic, so only the caller-side unwind is testable.)
	p := NewPool(2)
	defer p.Close()
	caller := goid()
	gate := make(chan struct{})
	var once sync.Once
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		p.Run(64, 1, func(lo, hi int) {
			if goid() != caller {
				// Helper: park until the caller has panicked so the caller
				// is guaranteed to claim (and panic on) some chunk.
				<-gate
				return
			}
			defer once.Do(func() { close(gate) })
			panic("kernel bug")
		})
	}()
	once.Do(func() { close(gate) }) // in case the caller claimed every chunk
	if !p.mu.TryLock() {
		t.Fatal("pool left locked after recovered panic")
	}
	p.mu.Unlock()
	coverage(t, p, 1000, 1)
}

func TestPoolRunDoesNotAllocate(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	sink := make([]float64, 4096)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	}
	p.Run(len(sink), 1, fn) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		p.Run(len(sink), 1, fn)
	})
	if allocs != 0 {
		t.Fatalf("Pool.Run allocated %g objects per call, want 0", allocs)
	}
}

func TestSharedPoolSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared returned distinct pools")
	}
	if Shared().Workers() < 1 {
		t.Fatal("shared pool has no workers")
	}
}

func TestQuota(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := Quota(1); got != procs {
		t.Errorf("Quota(1) = %d, want GOMAXPROCS = %d", got, procs)
	}
	if got := Quota(0); got != procs {
		t.Errorf("Quota(0) = %d, want GOMAXPROCS = %d", got, procs)
	}
	if got := Quota(-3); got != procs {
		t.Errorf("Quota(-3) = %d, want GOMAXPROCS = %d", got, procs)
	}
	if got := Quota(procs * 100); got != 1 {
		t.Errorf("Quota(%d) = %d, want 1", procs*100, got)
	}
	for parts := 1; parts <= 2*procs; parts++ {
		q := Quota(parts)
		if q < 1 {
			t.Fatalf("Quota(%d) = %d < 1", parts, q)
		}
		if q > 1 && q*parts > procs {
			t.Errorf("Quota(%d) = %d oversubscribes %d procs", parts, q, procs)
		}
	}
}
