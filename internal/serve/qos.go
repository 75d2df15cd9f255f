package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
)

// The built-in priority classes. A registry may serve any class set via
// QoSConfig.Weights; these three are the default, covering the workload
// spectrum the serving tier sees in practice: latency-sensitive user
// traffic, throughput-oriented bulk scoring, and best-effort churn.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
	ClassBackground  = "background"
)

// DefaultClassWeights is the class set a registry uses when QoSConfig.Weights
// is nil: interactive traffic gets 8 rows dispatched for every 2 batch rows
// and 1 background row when all three classes are backlogged.
func DefaultClassWeights() map[string]int {
	return map[string]int{ClassInteractive: 8, ClassBatch: 2, ClassBackground: 1}
}

var (
	// ErrUnknownClass reports a Request naming a class the registry was not
	// configured with. The HTTP layer maps it to 422.
	ErrUnknownClass = errors.New("serve: unknown request class")
	// ErrDeadlineExceeded reports a request whose deadline passed before its
	// rows reached an engine: expired rows are shed at dequeue, never
	// executed, so a deadlined caller is not billed engine time for answers
	// it can no longer use. The HTTP layer maps it to 504.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before execution")
)

// QoSConfig sets a registry's quality-of-service policy: the class set with
// its weighted-fair-queuing weights. Unlabeled requests fall into
// "interactive" when the set has it, else into the heaviest class.
type QoSConfig struct {
	// Weights maps class name → scheduling weight (≥ 1). Inside each model,
	// a deficit-round-robin scheduler dispatches rows across the classes in
	// weight proportion whenever more than one class is backlogged. Nil
	// selects DefaultClassWeights.
	Weights map[string]int
}

// qosSet is the resolved class universe shared by every model of one
// registry: canonical order (descending weight, then name), name↔id
// mapping, and the default class.
type qosSet struct {
	names   []string
	weights []int
	ids     map[string]int
	def     int
}

func newQoSSet(cfg QoSConfig) (*qosSet, error) {
	weights := cfg.Weights
	if weights == nil {
		weights = DefaultClassWeights()
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("serve: empty class set")
	}
	q := &qosSet{ids: make(map[string]int, len(weights))}
	for name, w := range weights {
		if name == "" {
			return nil, fmt.Errorf("serve: empty class name")
		}
		if w < 1 {
			return nil, fmt.Errorf("serve: class %q: weight %d, want ≥ 1", name, w)
		}
		q.names = append(q.names, name)
	}
	// Descending weight then name: the scheduler's round-robin order and the
	// metrics exposition order, stable across runs regardless of map order.
	sort.Slice(q.names, func(i, j int) bool {
		wi, wj := weights[q.names[i]], weights[q.names[j]]
		if wi != wj {
			return wi > wj
		}
		return q.names[i] < q.names[j]
	})
	q.weights = make([]int, len(q.names))
	for i, name := range q.names {
		q.weights[i] = weights[name]
		q.ids[name] = i
	}
	// Unlabeled traffic keeps top priority: "interactive", or in a custom
	// class set without it the heaviest class (names[0], def's zero value).
	if i, ok := q.ids[ClassInteractive]; ok {
		q.def = i
	}
	return q, nil
}

// id resolves a class name ("" → the default class) to its index.
func (q *qosSet) id(name string) (int, error) {
	if name == "" {
		return q.def, nil
	}
	i, ok := q.ids[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownClass, name)
	}
	return i, nil
}

func (q *qosSet) name(i int) string { return q.names[i] }
func (q *qosSet) size() int         { return len(q.names) }

// Request is the first-class inference request: a multi-row payload plus
// the QoS metadata the scheduler acts on. The zero value of every QoS field
// reproduces pre-QoS behavior (default class, no deadline), so wrapping an
// old call site is just Request{Rows: rows}.
type Request struct {
	// Rows are the input rows, each Model.InputWidth() long. Rows of one
	// request coalesce with concurrent requests' rows into shared engine
	// batches regardless of class.
	Rows [][]float64
	// Class names the priority class ("" → the registry's default class).
	// Unknown classes fail with ErrUnknownClass before any row is queued.
	Class string
	// Deadline, when nonzero, bounds queueing: rows still queued when it
	// passes are shed at dequeue with ErrDeadlineExceeded instead of
	// executing. It does not preempt rows already dispatched to an engine —
	// a row that starts executing finishes and is delivered.
	Deadline time.Time
	// TraceID correlates the request across tiers: generated at the edge
	// (router or HTTP server, carried as X-Radix-Trace-Id on the wire) or
	// by Do itself when empty. Response echoes the effective ID.
	TraceID string

	// out, when it holds len(Rows)×OutputWidth() floats, is where Do writes
	// the outputs instead of allocating them, and Response.Outputs are views
	// of it: the HTTP handler passes its pooled exchange's block.
	out []float64
	// spans, when set, holds the spans of the caller's own stages before Do
	// (the HTTP handler's admission), and Response.Spans is it with the
	// scheduler chain appended: the handler passes its trace's storage.
	spans []obs.Span
}

// Response reports a completed Request with its QoS accounting.
type Response struct {
	// Outputs are the result rows, in request order.
	Outputs [][]float64
	// Class is the canonical class the request was scheduled as (the
	// registry default when the request named none).
	Class string
	// QueueWait is the longest any row of the request sat queued before its
	// batch was dispatched to an engine.
	QueueWait time.Duration
	// Execute is the longest engine invocation any row of the request rode
	// in (a row's end-to-end latency ≈ its queue wait + execute).
	Execute time.Duration
	// TraceID is the request's effective trace ID (the caller's, or one
	// Do generated when the request carried none).
	TraceID string
	// Spans are the per-stage scheduler timings — queue, assemble, lease,
	// execute, deliver — each the worst across the request's rows, start
	// offsets chained cumulatively, after the spans the request brought
	// (the HTTP layer's admission, which it echoes with the chain on the
	// wire).
	Spans []obs.Span
}

// pipelineSpans appends the scheduler-stage durations to spans as a chain
// with cumulative start offsets, the first starting where the last of
// spans ends. Each duration is the worst across the request's rows, so the
// chain is representative of the request's critical path rather than a
// strict timeline of any single row.
func pipelineSpans(spans []obs.Span, queue, assemble, lease, execute, deliver time.Duration) []obs.Span {
	stages := [...]struct {
		name string
		d    time.Duration
	}{{"queue", queue}, {"assemble", assemble}, {"lease", lease}, {"execute", execute}, {"deliver", deliver}}
	base := 0.0
	if n := len(spans); n > 0 {
		base = spans[n-1].StartMs + spans[n-1].DurMs
	}
	spans = slices.Grow(spans, len(stages))
	at := time.Duration(0)
	for _, s := range stages {
		sp := obs.MkSpan(s.name, at, s.d)
		sp.StartMs += base
		spans = append(spans, sp)
		at += s.d
	}
	return spans
}

// classQ is one class's bounded FIFO inside a model's scheduler: a fixed
// ring of QueueDepth slots plus the class's deficit-round-robin state.
type classQ struct {
	weight  int
	deficit int
	buf     []*pending
	head, n int
}

//radix:hotpath
func (q *classQ) push(p *pending) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
	return true
}

//radix:hotpath
func (q *classQ) pop() *pending {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// classSched is a model's weighted-fair scheduler state: one bounded FIFO
// per class, drained by deficit round-robin. Not self-locking — the batcher
// guards it with its mutex.
type classSched struct {
	classes []classQ
	rr      int // the class the next take resumes at
	pending int // rows queued across all classes
}

func newClassSched(qos *qosSet, depth int) *classSched {
	s := &classSched{classes: make([]classQ, qos.size())}
	for i := range s.classes {
		s.classes[i] = classQ{weight: qos.weights[i], buf: make([]*pending, depth)}
	}
	return s
}

// enqueue appends a row to its class queue; ErrQueueFull when that class is
// at its bound (each class has its own QueueDepth, so a background flood
// can never crowd interactive rows out of queue space).
//
//radix:hotpath
func (s *classSched) enqueue(p *pending) error {
	if !s.classes[p.class].push(p) {
		return ErrQueueFull
	}
	s.pending++
	return nil
}

// take dequeues up to max rows by deficit round-robin, appending them to
// dst. Each visit to a backlogged class credits it weight rows of deficit;
// the class then dispatches rows until the deficit or its queue runs out.
// Deficit and position persist across calls, so fairness holds across
// batches, and an empty class's deficit resets — an idle class cannot bank
// credit. Rows whose deadline has passed are shed (returned separately,
// never dispatched) and cost the class no deficit.
//
// Starvation-freedom: any backlogged class with weight w ≥ 1 dispatches at
// least w rows per full round-robin cycle, so with total weight W it waits
// at most ~W dispatched rows for its next turn, regardless of how
// adversarially the other classes arrive.
//
// allow=alloc: got grows into the caller's reusable dst (amortized to zero
// once the worker's slice reaches MaxBatch) and shed only allocates on the
// deadline-miss path.
//
//radix:hotpath allow=alloc
func (s *classSched) take(dst []*pending, max int, now time.Time) (got, shed []*pending) {
	got = dst
	for s.pending > 0 && len(got) < max {
		cq := &s.classes[s.rr]
		if cq.n == 0 {
			cq.deficit = 0
			s.rr = (s.rr + 1) % len(s.classes)
			continue
		}
		if cq.deficit <= 0 {
			cq.deficit += cq.weight
		}
		for cq.n > 0 && cq.deficit > 0 && len(got) < max {
			p := cq.pop()
			p.queued = now.Sub(p.enq) // trace span boundary: row left its class queue
			s.pending--
			if !p.deadline.IsZero() && now.After(p.deadline) {
				shed = append(shed, p)
				continue
			}
			cq.deficit--
			got = append(got, p)
		}
		if len(got) >= max && cq.n > 0 && cq.deficit > 0 {
			// Batch full mid-quantum: resume this class, with its remaining
			// deficit, on the next take.
			break
		}
		if cq.n == 0 {
			cq.deficit = 0
		}
		s.rr = (s.rr + 1) % len(s.classes)
	}
	return got, shed
}

// depth reports one class's queued rows.
func (s *classSched) depth(class int) int { return s.classes[class].n }

// room reports how many more rows one class's queue can take.
func (s *classSched) room(class int) int { return len(s.classes[class].buf) - s.classes[class].n }
