package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/radix-net/radixnet/internal/sparse"
)

// Policy bounds one model's micro-batching scheduler. The zero value of any
// field selects its default.
type Policy struct {
	// MaxBatch caps the rows coalesced into one engine invocation.
	// Default 32.
	MaxBatch int
	// MaxLatency is how long the first row of a batch waits for company
	// before the batch executes anyway. It is the knob trading single-row
	// latency for batch density; negative disables waiting (a batch takes
	// only what is already queued), zero selects the default of 2ms.
	MaxLatency time.Duration
	// QueueDepth bounds pending rows PER CLASS; a request whose rows do not
	// all fit in its class's queue fails whole with ErrQueueFull instead of
	// queuing unboundedly (one with more rows than QueueDepth can never fit
	// and fails with ErrRequestTooLarge), and a flood in one class can
	// never crowd another class out of queue space. Rows already held by
	// batch workers are outside this bound, so total in-flight rows are at
	// most classes×QueueDepth + engines×MaxBatch. Default 256.
	QueueDepth int
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 32
	}
	if p.MaxLatency == 0 {
		p.MaxLatency = 2 * time.Millisecond
	}
	if p.QueueDepth <= 0 {
		p.QueueDepth = 256
	}
	return p
}

var (
	// ErrQueueFull is the backpressure signal: the request's class queue is
	// at QueueDepth. Callers should shed or retry with backoff; the HTTP
	// layer maps it to 429 with a Retry-After read from the class's
	// queue-wait p90 (Model.RetryAfterSeconds).
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrRequestTooLarge reports a request with more rows than its class
	// queue holds (Policy.QueueDepth): it could never be admitted whole,
	// so it is refused before any row is queued. The HTTP layer maps it to
	// 413.
	ErrRequestTooLarge = errors.New("serve: request larger than its class queue")
	// ErrClosed reports a submission to a model that has been unregistered
	// or whose registry has been closed (or is draining for shutdown). The
	// HTTP layer maps it to 503.
	ErrClosed = errors.New("serve: model closed")
)

// pending is one enqueued row: input, destination for the output, QoS
// metadata, and the completion signal. The batcher owns it from submit
// until done is closed.
type pending struct {
	row      []float64 // input, length inW; read-only to the batcher
	out      []float64 // output destination, length outW, written before done
	err      error     // terminal row status, written before done
	done     chan struct{}
	enq      time.Time
	class    int           // class id in the registry's qosSet
	deadline time.Time     // zero = none; checked at dequeue
	trace    string        // request trace ID, stamped on histogram exemplars
	wait     time.Duration // enqueue → engine dispatch, set before done
	exec     time.Duration // engine invocation elapsed, set before done

	// Span timings for request tracing, set before done: queued is
	// enqueue→dequeue (span "queue", set when the row leaves its class
	// queue; wait−queued is span "assemble", company collection), lease is
	// the engine lease acquisition wait, deliver is post-engine completion
	// fan-out.
	queued  time.Duration
	lease   time.Duration
	deliver time.Duration
}

// batcher is one model's QoS scheduler: per-class bounded queues drained by
// deficit round-robin across classes, by one batch worker per engine that
// take turns at collecting.
type batcher struct {
	model *Model
	pol   Policy
	met   *Metrics
	qos   *qosSet
	slots chan struct{} // the registry's engine quota, shared by every model

	// inflight counts rows between submit and completion. It tells a
	// collector whether waiting out the latency budget can possibly gain
	// company: a batch holding every in-flight row waits only the grace
	// window, so closed-loop single clients never pay MaxLatency.
	inflight atomic.Int64

	// classWait holds one EWMA per QoS class of the pure queue delay
	// (dequeue − enqueue, nanoseconds) — the time rows actually spend
	// waiting for a collector, NOT the enqueue→dispatch wait, which
	// includes the deliberate collection window and would feed the window
	// back into itself (positive feedback driving it permanently to
	// MaxLatency). The collector's adaptive collection window derives from
	// the max across classes: idle models converge to the fast-path grace,
	// saturated ones to the full MaxLatency budget.
	classWait []atomic.Int64

	mu     sync.Mutex // guards closed and sched
	closed bool
	sched  *classSched

	// fullErr holds one pre-wrapped ErrQueueFull per class, built at
	// construction so the submit hot path rejects without formatting.
	fullErr []error

	// collecting is the collector's turn: the worker holding it takes rows
	// and waits out the collection window, and is the only one selecting
	// on notify. It is released before execute.
	collecting sync.Mutex

	notify chan struct{} // capacity 1; pinged whenever queued work may exist
	done   chan struct{} // closed by close()
	wg     sync.WaitGroup
}

func newBatcher(m *Model, pol Policy, qos *qosSet, slots chan struct{}) *batcher {
	b := &batcher{
		model:  m,
		pol:    pol,
		met:    &m.met,
		qos:    qos,
		slots:  slots,
		sched:  newClassSched(qos, pol.QueueDepth),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	b.fullErr = make([]error, qos.size())
	for c := range b.fullErr {
		b.fullErr[c] = fmt.Errorf("%w (class %q)", ErrQueueFull, qos.name(c))
	}
	b.classWait = make([]atomic.Int64, qos.size())
	b.wg.Add(m.engines)
	for range m.engines {
		go b.worker()
	}
	return b
}

// ping wakes the collecting worker. The buffered channel keeps the wakeup
// even when the collector is not in its select yet, so submit→sleep races
// never lose a signal.
func (b *batcher) ping() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// submit queues one request's rows, all of one class, as a unit and
// without blocking: every row or none. ErrQueueFull when the class queue
// lacks room for all of them, ErrClosed after close; a refused request
// counts every one of its rows. Rejections return the class's pre-wrapped
// error so the full-queue path never formats.
//
//radix:hotpath
func (b *batcher) submit(ps []pending) error {
	class := ps[0].class
	n := int64(len(ps))
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		// Shutdown, not backpressure: keep the Rejected (queue-full) series
		// clean for operators alerting on it. Accepted and Failed, as if
		// the rows had failed at once, so accepted = completed + failed +
		// expired + queued holds, as for Do's dead-on-arrival shed.
		b.met.class(class).Accepted.Add(n)
		b.met.Failed.Add(n)
		return ErrClosed
	}
	if b.sched.room(class) < len(ps) {
		b.mu.Unlock()
		b.met.class(class).Rejected.Add(n)
		return b.fullErr[class]
	}
	// Count the rows in flight before they become visible to the collector, so
	// a collector never observes inflight < rows it holds.
	b.inflight.Add(n)
	for i := range ps {
		_ = b.sched.enqueue(&ps[i]) // cannot fail: room was checked under this lock
	}
	b.mu.Unlock()
	b.met.class(class).Accepted.Add(n)
	b.ping()
	return nil
}

// close rejects future submissions, then drains: rows already accepted are
// still executed (on whatever engine generation is current when their batch
// leases) before the workers exit, except rows whose deadline has already
// passed, which are shed as usual. Blocks until the drain completes. Called
// by Registry.Unregister and Registry.Close; idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.done)
	}
	b.wg.Wait()
}

// depth reports the rows currently queued (all classes).
func (b *batcher) depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sched.pending
}

// classDepth reports one class's queued rows.
func (b *batcher) classDepth(class int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sched.depth(class)
}

// classBacklog reports, under one lock, a class's queued rows and its DRR
// share of the dispatch stream right now: weight over the summed weights
// of every currently backlogged class (1.0 when it would be the only
// backlogged class). The Retry-After estimate uses it — a low-weight class
// drains at its share of the engine rate, not the whole rate.
func (b *batcher) classBacklog(class int) (depth int, share float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	depth = b.sched.depth(class)
	weights := 0
	for i := range b.sched.classes {
		if i == class || b.sched.classes[i].n > 0 {
			weights += b.sched.classes[i].weight
		}
	}
	return depth, float64(b.sched.classes[class].weight) / float64(weights)
}

// worker is one engine's batch loop: collect a batch in the collector's
// turn, then execute it while another worker collects. Exits when the
// batcher is closed and every queue is empty.
func (b *batcher) worker() {
	defer b.wg.Done()
	reqs := make([]*pending, 0, b.pol.MaxBatch)
	// The worker's staging buffer: one batch's input rows, copied in
	// contiguously for the engine, reused by every batch it executes.
	buf := make([]float64, b.pol.MaxBatch*b.model.inW)
	// Go 1.23 timers: after Reset returns, no tick of an earlier setting is
	// received, so the timer is reused without stopping or draining it.
	timer := time.NewTimer(time.Hour)
	for {
		if reqs = b.collect(reqs[:0], timer); len(reqs) == 0 {
			return
		}
		b.execute(reqs, buf)
	}
}

// collect waits for the collector's turn, then takes a weighted-fair batch,
// sleeping on notify while every queue is empty, and waits out the latency
// budget while the batch is short. Only the worker whose turn it is listens
// for new rows, so a request that arrives while a batch collects joins it
// instead of opening a second window on an idle worker. It returns no rows
// only once the batcher is closed and drained.
func (b *batcher) collect(reqs []*pending, timer *time.Timer) []*pending {
	b.collecting.Lock()
	defer b.collecting.Unlock()
	var window <-chan time.Time // nil until the collection window opens
	graced := false
	for {
		var shed []*pending
		b.mu.Lock()
		reqs, shed = b.sched.take(reqs, b.pol.MaxBatch, time.Now())
		left, closed := b.sched.pending, b.closed
		b.mu.Unlock()
		b.expire(shed)
		switch {
		case len(reqs) == 0 && closed && left == 0:
			return reqs
		case len(reqs) == 0: // wait for rows; once closed, done is ready and the drain goes on
		case closed || len(reqs) == b.pol.MaxBatch || b.pol.MaxLatency <= 0:
			return reqs
		case window == nil:
			wait := b.collectWindow()
			if graced = !b.companyPossible(len(reqs)); graced {
				// Single-client fast path: the batch already holds every
				// row the system knows about, so the full latency budget
				// cannot buy company. A zero wait would be wrong too —
				// concurrent clients' first rows arrive staggered by
				// scheduler microseconds and would each execute alone — so
				// wait one short grace window instead of the budget.
				wait = min(wait, fastPathGrace)
			}
			timer.Reset(wait)
			window = timer.C
		case !graced && !b.companyPossible(len(reqs)):
			// The window was opened for rows in flight elsewhere, and every
			// row in flight is now in this batch: the rest of the window
			// cannot add one. A grace window is left to run out, for
			// single-row clients not yet counted.
			return reqs
		}
		select {
		case <-b.notify:
		case <-window:
			return reqs
		case <-b.done: // the next take sees closed
		}
	}
}

// fastPathGrace is the collection window a collector uses in place of the
// full MaxLatency budget when the batch already holds every known
// in-flight row: long enough for a concurrent client staggered by
// scheduler jitter to get its row queued, short enough that a closed-loop
// single client pays microseconds per row instead of the 2ms default
// budget (the regression the fast path exists to fix).
const fastPathGrace = 200 * time.Microsecond

// waitEWMAShift is the smoothing of the per-class queue-delay EWMA:
// new = old + (sample−old)/2^3, i.e. a ~8-batch memory — long enough to
// ride out one anomalous batch, short enough that a load shift retunes
// the collection window within a few batches.
const waitEWMAShift = 3

// noteQueueDelay folds one row's measured queue delay into its class's
// EWMA. Racing updates may lose an increment; the EWMA is a tuning
// signal, not an accounting counter, and stays within the clamp bounds
// regardless.
func (b *batcher) noteQueueDelay(class int, delay time.Duration) {
	ew := &b.classWait[class]
	old := ew.Load()
	ew.Store(old + (delay.Nanoseconds()-old)>>waitEWMAShift)
}

// collectWindow is the adaptive collection budget: twice the worst
// per-class queue-delay EWMA, clamped to [fastPathGrace, MaxLatency].
// Under light load rows barely queue, the EWMA sits near zero, and short
// batches dispatch after only the grace window — single-row latency wins.
// Under saturation queue delay dwarfs the budget and the window opens to
// the full MaxLatency — batch density wins exactly when it pays. The
// clamp's upper bound is the configured MaxLatency, so the adaptive
// window never makes any request wait longer than the static policy did.
//
//radix:hotpath
func (b *batcher) collectWindow() time.Duration {
	var worst int64
	for c := range b.classWait {
		if v := b.classWait[c].Load(); v > worst {
			worst = v
		}
	}
	w := time.Duration(2 * worst)
	if w < fastPathGrace {
		return fastPathGrace
	}
	if w > b.pol.MaxLatency {
		return b.pol.MaxLatency
	}
	return w
}

// companyPossible reports whether a collector holding held rows has any
// reason to wait out the full latency budget: rows in flight beyond its
// own batch (concurrent clients whose rows are queued or executing
// elsewhere and who may resubmit). A request's rows are queued together,
// so a collector never holds part of a request whose other rows are yet
// to arrive. When the batch already holds every row in flight — the
// closed-loop single-client case — the budget cannot buy company and the
// collector waits only fastPathGrace. This is a heuristic: a false
// "possible" still bounds latency by MaxLatency, exactly the pre-fast-path
// behavior.
func (b *batcher) companyPossible(held int) bool {
	return b.inflight.Load() > int64(held)
}

// expire completes rows shed at dequeue for a passed deadline: never
// executed, failed with ErrDeadlineExceeded, counted per class.
//
//radix:hotpath
func (b *batcher) expire(shed []*pending) {
	if len(shed) == 0 {
		return
	}
	for _, p := range shed {
		p.err = ErrDeadlineExceeded
		b.met.class(p.class).Expired.Add(1)
		close(p.done)
	}
	b.inflight.Add(-int64(len(shed)))
}

// execute takes one of the registry's execution slots, stages the batch's
// rows in buf (the worker's MaxBatch×inW buffer), leases an engine, runs one
// fused forward pass over the coalesced batch, copies each row's output into
// its pending slot, completes every request and gives the slot back. Models
// waiting for a slot get one in the order the Go runtime wakes blocked
// channel senders. Output rows are copied out of the engine's ping-pong view
// before the engine is released, so the view is never read after the next
// lease-holder overwrites it. Clock reads are per batch, not per row, hence
// the allowance.
//
//radix:hotpath allow=time
func (b *batcher) execute(reqs []*pending, buf []float64) {
	b.slots <- struct{}{}
	m := b.model
	n := len(reqs)
	for i, p := range reqs {
		copy(buf[i*m.inW:(i+1)*m.inW], p.row)
	}
	dispatch := time.Now()
	for _, p := range reqs {
		p.wait = dispatch.Sub(p.enq)
		b.noteQueueDelay(p.class, p.queued)
	}
	var execDur, leaseDur time.Duration
	var execEnd time.Time
	batch, err := sparse.DenseFromSlice(n, m.inW, buf[:n*m.inW])
	if err == nil {
		leaseStart := time.Now()
		eng := m.Lease()
		execStart := time.Now()
		leaseDur = execStart.Sub(leaseStart)
		var out *sparse.Dense
		if out, err = eng.Infer(batch); err == nil {
			data := out.Data()
			for i, p := range reqs {
				copy(p.out, data[i*m.outW:(i+1)*m.outW])
			}
		}
		execDur = time.Since(execStart)
		execEnd = execStart.Add(execDur)
		m.Release(eng)
	}
	b.met.ExecHist.Observe(execDur.Nanoseconds())
	b.met.BatchHist.Observe(int64(n))
	now := time.Now()
	var deliverDur time.Duration
	if !execEnd.IsZero() {
		deliverDur = now.Sub(execEnd)
	}
	for _, p := range reqs {
		p.err = err
		p.exec = execDur
		p.lease = leaseDur
		p.deliver = deliverDur
		if err != nil {
			b.met.Failed.Add(1)
		} else {
			lat := now.Sub(p.enq).Nanoseconds()
			b.met.observe(lat, p.trace)
			cm := b.met.class(p.class)
			cm.LatencyHist.ObserveTraced(lat, p.trace)
			cm.observeWait(p.wait.Nanoseconds(), p.trace)
		}
		close(p.done)
	}
	b.inflight.Add(-int64(n))
	<-b.slots
}
