package parallel

import (
	"sync"
	"testing"
)

func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 255, 256, 257, 4096, 10_000} {
		for _, grain := range []int{1, DefaultGrain} {
			var mu sync.Mutex
			covered := make([]bool, n)
			BlocksGrain(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					if covered[i] {
						t.Errorf("index %d covered twice", i)
					}
					covered[i] = true
				}
			})
			for i, c := range covered {
				if !c {
					t.Fatalf("n=%d grain=%d: index %d not covered", n, grain, i)
				}
			}
		}
	}
}

func TestBlocksNegativeAndZero(t *testing.T) {
	called := false
	Blocks(0, func(lo, hi int) { called = true })
	Blocks(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Blocks must not invoke fn for non-positive n")
	}
}
