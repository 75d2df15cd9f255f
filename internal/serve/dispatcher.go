package serve

import (
	"container/heap"
	"sync"
)

// dispatcher is the registry-wide engine quota: at most capacity batch
// executions run concurrently across every model. When models contend,
// freed slots are granted by stride scheduling with one stride for all —
// each model carries a pass value advanced by one per slot taken, and the
// waiter with the smallest pass wins — so contending models take turns.
// With every stride equal, stride scheduling is round-robin across models
// on a virtual clock: the pass counts slots taken, and the smallest pass is
// the model whose turn it is. A model idle while others ran rejoins at the
// current virtual time instead of cashing in its stale low pass, so
// idleness earns no burst credit.
type dispatcher struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	vtime    uint64 // pass of the most recently granted slot
	seq      uint64 // FIFO tie-break for equal passes
	waiters  waiterHeap
}

// dispClient is one model's stride-scheduling state, guarded by the
// dispatcher's mutex.
type dispClient struct {
	pass uint64
}

type dispWaiter struct {
	pass uint64
	seq  uint64
	ch   chan struct{}
}

func newDispatcher(capacity int) *dispatcher {
	if capacity < 1 {
		capacity = 1
	}
	return &dispatcher{capacity: capacity}
}

// acquire blocks until the model owns one execution slot. Slots must be
// released; the batcher brackets every engine invocation with
// acquire/release, so a slot is never held longer than one batch.
func (d *dispatcher) acquire(c *dispClient) {
	d.mu.Lock()
	if c.pass < d.vtime {
		c.pass = d.vtime
	}
	myPass := c.pass
	c.pass++
	if d.inUse < d.capacity {
		d.inUse++
		if myPass > d.vtime {
			d.vtime = myPass
		}
		d.mu.Unlock()
		return
	}
	w := &dispWaiter{pass: myPass, seq: d.seq, ch: make(chan struct{})}
	d.seq++
	heap.Push(&d.waiters, w)
	d.mu.Unlock()
	<-w.ch
}

// release frees one slot, handing it to the waiting model with the lowest
// pass when anyone is queued.
func (d *dispatcher) release() {
	d.mu.Lock()
	if d.waiters.Len() > 0 {
		w := heap.Pop(&d.waiters).(*dispWaiter)
		if w.pass > d.vtime {
			d.vtime = w.pass
		}
		close(w.ch) // the slot transfers; inUse is unchanged
	} else {
		d.inUse--
	}
	d.mu.Unlock()
}

// waiterHeap is a min-heap of waiters by (pass, seq).
type waiterHeap []*dispWaiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].pass != h[j].pass {
		return h[i].pass < h[j].pass
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*dispWaiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}
