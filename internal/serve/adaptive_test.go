package serve

import (
	"runtime"
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

// TestCollectStopsOnceEveryRowIsHeld pins the in-window half of the
// batcher wait: a collector that opened its full window because rows were
// in flight elsewhere, and that a later request's arrival leaves holding
// every row in flight, dispatches at once instead of waiting out the rest
// of its window. The window here is 2 s; waiting it out is the failure.
// The rows elsewhere are counted in flight by hand, as rows executing on
// another collector are, and finish while the collector waits; finishing
// wakes nobody, so the second request's arrival is what the collector acts
// on. There is one collector (the workers=1 case), so that wake-up can
// only go to it. A try in which the collector decided on its window only
// after the rows elsewhere had finished takes the grace window instead,
// runs the two requests in two batches, and is not counted.
func TestCollectStopsOnceEveryRowIsHeld(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Second})
		defer reg.Close()
		m, err := reg.Register("m", testConfig(t), 1)
		if err != nil {
			t.Fatal(err)
		}
		b := m.bat
		in, err := dataset.SparseBatch(4, m.InputWidth(), 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		for range 5 {
			b.classWait[0].Store(time.Second.Nanoseconds())
			if got := b.collectWindow(); got != 2*time.Second {
				t.Fatalf("precondition: window = %v, want 2s", got)
			}
			rows := make([]pending, 4)
			for i := range rows {
				rows[i] = pending{row: in.RowSlice(i), out: make([]float64, m.OutputWidth()), done: make(chan struct{}), enq: time.Now()}
			}
			const elsewhere = 3
			b.inflight.Add(elsewhere)
			if err := b.submit(rows[:2]); err != nil {
				t.Fatal(err)
			}
			waitTaken(t, b)
			time.Sleep(time.Millisecond) // let the collector open its window
			b.inflight.Add(-elsewhere)
			start := time.Now()
			if err := b.submit(rows[2:]); err != nil {
				t.Fatal(err)
			}
			for i := range rows {
				p := &rows[i]
				select {
				case <-p.done:
				case <-time.After(3 * time.Second):
					t.Fatalf("row %d never completed", i)
				}
				if p.err != nil {
					t.Fatalf("row %d: %v", i, p.err)
				}
			}
			if waited := time.Since(start); waited >= time.Second {
				t.Fatalf("dispatched %v after the collector came to hold every row in flight, want well under the 2s window", waited)
			}
			dispatch := rows[0].enq.Add(rows[0].wait)
			if rows[3].enq.Add(rows[3].wait).Equal(dispatch) {
				return
			}
		}
		t.Skip("the collector never opened its full window before the rows elsewhere finished")
	})
}

// TestOneWorkerCollectsAtATime pins that a model's workers take turns at
// collecting. With the default policy, two engines and a 2 s window, the
// collecting worker opens its full window for a 2-row request while 3 rows
// are counted in flight elsewhere; those rows finish, and a second 2-row
// request arrives. The idle worker is waiting for its turn, not for rows,
// so the collector takes the second request, holds every row in flight and
// dispatches. An idle worker listening for rows would take the second
// request into a full window of its own, and both batches would wait out
// the 2 s. Every round must finish well under 1 s.
func TestOneWorkerCollectsAtATime(t *testing.T) {
	reg := NewRegistry(Policy{MaxLatency: 2 * time.Second})
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat
	in, err := dataset.SparseBatch(4, m.InputWidth(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for round := range 8 {
		b.classWait[0].Store(time.Second.Nanoseconds())
		rows := make([]pending, 4)
		for i := range rows {
			rows[i] = pending{row: in.RowSlice(i), out: make([]float64, m.OutputWidth()), done: make(chan struct{}), enq: time.Now()}
		}
		const elsewhere = 3
		b.inflight.Add(elsewhere)
		if err := b.submit(rows[:2]); err != nil {
			t.Fatal(err)
		}
		waitTaken(t, b)
		time.Sleep(time.Millisecond) // let the collector open its window
		b.inflight.Add(-elsewhere)
		start := time.Now()
		if err := b.submit(rows[2:]); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			p := &rows[i]
			select {
			case <-p.done:
			case <-time.After(3 * time.Second):
				t.Fatalf("round %d: row %d never completed", round, i)
			}
			if p.err != nil {
				t.Fatalf("round %d: row %d: %v", round, i, p.err)
			}
		}
		if waited := time.Since(start); waited >= time.Second {
			t.Fatalf("round %d: the second request completed %v after it arrived, want well under the 2s window", round, waited)
		}
		if rows[0].enq.Add(rows[0].wait).Equal(rows[3].enq.Add(rows[3].wait)) {
			shared++
		}
	}
	if shared == 0 {
		t.Skip("the collector never opened its full window before the rows elsewhere finished")
	}
}

// waitTaken waits until a collector has taken every queued row.
func waitTaken(t *testing.T, b *batcher) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); b.depth() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no collector took the queued rows")
		}
	}
}

// TestGraceWindowCoalescesStaggeredRows pins that the single-row fast path
// still gathers company: rows of concurrent single-row clients, arriving one
// after another inside the grace window, share one batch even though each
// arrival leaves the batch holding every row in flight. Each try submits a
// row, waits until the collector holds it, then does the same with two more;
// a try whose rows took longer than half the grace window to submit proves
// nothing on a busy host and is not counted.
func TestGraceWindowCoalescesStaggeredRows(t *testing.T) {
	reg := NewRegistry(Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond})
	defer reg.Close()
	m, err := reg.Register("m", testConfig(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := m.bat
	in, err := dataset.SparseBatch(3, m.InputWidth(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	for range 100 {
		rows := make([]pending, 3)
		start := time.Now()
		for i := range rows {
			rows[i] = pending{row: in.RowSlice(i), out: make([]float64, m.OutputWidth()), done: make(chan struct{}), enq: time.Now()}
			if err := b.submit(rows[i : i+1]); err != nil {
				t.Fatal(err)
			}
			for i < len(rows)-1 && b.depth() != 0 {
				runtime.Gosched()
			}
		}
		staggered := time.Since(start)
		for i := range rows {
			<-rows[i].done
			if rows[i].err != nil {
				t.Fatal(rows[i].err)
			}
		}
		if staggered > fastPathGrace/2 {
			continue
		}
		counted++
		// A batch's rows share one dispatch instant.
		dispatch := rows[0].enq.Add(rows[0].wait)
		if rows[1].enq.Add(rows[1].wait).Equal(dispatch) && rows[2].enq.Add(rows[2].wait).Equal(dispatch) {
			return
		}
	}
	if counted == 0 {
		t.Skip("the host never submitted three rows inside half the grace window")
	}
	t.Fatalf("in %d tries, rows staggered inside the grace window never shared a batch", counted)
}
