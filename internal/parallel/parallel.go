// Package parallel provides small, dependency-free building blocks for
// data-parallel loops used throughout the RadiX-Net library.
//
// All helpers bound their worker count by runtime.GOMAXPROCS(0) and degrade
// to a plain serial loop when only one worker is available or when the
// problem is too small to amortize dispatch. Block loops (Blocks,
// BlocksGrain) dispatch through the process-wide persistent Pool (see
// Shared), so repeated calls — e.g. once per inference batch, each block
// carried depth-first through the layer stack — reuse parked workers instead
// of spawning goroutines.
package parallel

// DefaultGrain is the minimum number of loop iterations per worker below
// which Blocks falls back to a serial loop. Spawning goroutines for tiny
// loops costs more than it saves.
const DefaultGrain = 256

// Blocks partitions [0, n) into contiguous blocks, one per worker, and calls
// fn(lo, hi) for each block, possibly in parallel. fn must be safe to call
// concurrently for disjoint ranges.
func Blocks(n int, fn func(lo, hi int)) {
	BlocksGrain(n, DefaultGrain, fn)
}

// BlocksGrain is Blocks with an explicit minimum block length. It dispatches
// on the shared persistent pool; nested or concurrent calls fall back to
// spawn-per-call goroutines rather than deadlocking (see Pool.Run).
func BlocksGrain(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	Shared().Run(n, grain, fn)
}
