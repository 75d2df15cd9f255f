package serve

import (
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/dataset"
)

// TestCollectWindowClampAndMax pins the adaptive window's arithmetic:
// twice the worst per-class queue-delay EWMA, clamped to
// [fastPathGrace, MaxLatency].
func TestCollectWindowClampAndMax(t *testing.T) {
	reg, err := NewRegistryQoS(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond}, QoSConfig{
		Weights: map[string]int{"interactive": 3, "background": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat
	set := func(ewma ...time.Duration) {
		for c := range b.classWait {
			b.classWait[c].Store(0)
		}
		for c, d := range ewma {
			b.classWait[c].Store(d.Nanoseconds())
		}
	}

	set() // idle: every class EWMA zero
	if got := b.collectWindow(); got != fastPathGrace {
		t.Fatalf("idle window = %v, want floor %v", got, fastPathGrace)
	}
	set(10 * time.Millisecond) // saturated: 2×10ms far above the budget
	if got := b.collectWindow(); got != b.pol.MaxLatency {
		t.Fatalf("saturated window = %v, want ceiling %v", got, b.pol.MaxLatency)
	}
	set(300 * time.Microsecond) // mid-band: tracks 2× the EWMA exactly
	if got, want := b.collectWindow(), 600*time.Microsecond; got != want {
		t.Fatalf("mid-band window = %v, want %v", got, want)
	}
	set(50*time.Microsecond, 400*time.Microsecond) // worst class governs
	if got, want := b.collectWindow(), 800*time.Microsecond; got != want {
		t.Fatalf("multi-class window = %v, want %v (worst class)", got, want)
	}
}

// TestQueueDelayEWMAConvergence drives the measurement path directly:
// sustained large queue delays open the window to the full MaxLatency
// within a handful of batches, and sustained near-zero delays decay it
// back to the fast-path floor. This is the saturation half of the
// adaptive-batching contract, deterministic because it feeds the same
// samples execute() would record under real queueing.
func TestQueueDelayEWMAConvergence(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat

	// Saturation: rows waiting ~MaxLatency each. The EWMA climbs past
	// MaxLatency/2 within a few samples and the window hits the ceiling.
	for i := 0; i < 32; i++ {
		b.noteQueueDelay(0, 2*time.Millisecond)
	}
	if got := b.collectWindow(); got != b.pol.MaxLatency {
		t.Fatalf("after sustained queueing: window = %v, want %v", got, b.pol.MaxLatency)
	}

	// Recovery: load drains, queue delays drop to zero. The 1/8 smoothing
	// forgets the saturated history within a few dozen samples.
	for i := 0; i < 64; i++ {
		b.noteQueueDelay(0, 0)
	}
	if got := b.collectWindow(); got != fastPathGrace {
		t.Fatalf("after drain: window = %v, want floor %v", got, fastPathGrace)
	}
}

// TestAdaptiveWindowLightLoadConverges is the end-to-end half: a batcher
// whose EWMA remembers heavy queueing is driven by a sequential
// single-row client (the light-load extreme), and the real execute()
// measurements pull the collection window back down to the fast-path
// floor — light load tunes MaxLatency down by itself.
func TestAdaptiveWindowLightLoadConverges(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat
	b.classWait[0].Store((5 * time.Millisecond).Nanoseconds()) // poisoned by past saturation
	if got := b.collectWindow(); got != b.pol.MaxLatency {
		t.Fatalf("precondition: window = %v, want ceiling %v", got, b.pol.MaxLatency)
	}

	in, err := dataset.SparseBatch(1, m.InputWidth(), 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, m.OutputWidth())
	for i := 0; i < 80; i++ {
		if err := doRow(m, in.RowSlice(0), out); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.collectWindow(); got != fastPathGrace {
		t.Fatalf("after sequential light load: window = %v, want floor %v (EWMA %v)",
			got, fastPathGrace, time.Duration(b.classWait[0].Load()))
	}
}
