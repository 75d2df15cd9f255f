package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/radix-net/radixnet/internal/sparse"
)

// Trainer runs minibatch gradient descent over a fixed dataset, optionally
// sharding each minibatch across worker goroutines that hold weight-sharing
// network replicas (synchronous data parallelism with an exact gradient
// all-reduce, so results are independent of the worker count up to
// floating-point summation order).
type Trainer struct {
	Net       *Network
	Opt       Optimizer
	Loss      Loss
	BatchSize int
	// Workers is the number of data-parallel shards per minibatch;
	// values < 1 select runtime.GOMAXPROCS(0).
	Workers int
	// Seed drives minibatch shuffling; a fixed seed makes runs reproducible.
	Seed int64

	replicas []*Network
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch    int
	MeanLoss float64
}

// History accumulates per-epoch statistics.
type History struct {
	Epochs []EpochStats
}

// Last returns the final epoch's stats.
func (h History) Last() EpochStats {
	if len(h.Epochs) == 0 {
		return EpochStats{}
	}
	return h.Epochs[len(h.Epochs)-1]
}

func (t *Trainer) workers() int {
	if t.Workers >= 1 {
		return t.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (t *Trainer) validate() error {
	if t.Net == nil || t.Opt == nil || t.Loss == nil {
		return errors.New("nn: trainer needs Net, Opt and Loss")
	}
	if t.BatchSize < 1 {
		return errors.New("nn: trainer batch size must be positive")
	}
	return nil
}

// TrainBatch performs one optimizer step on the given minibatch and returns
// its mean loss.
func (t *Trainer) TrainBatch(x, target *sparse.Dense) (float64, error) {
	if err := t.validate(); err != nil {
		return 0, err
	}
	if x.Rows() != target.Rows() {
		return 0, fmt.Errorf("%w: %d inputs vs %d targets", ErrShape, x.Rows(), target.Rows())
	}
	w := t.workers()
	if w > x.Rows() {
		w = x.Rows()
	}
	t.Net.ZeroGrads()
	var loss float64
	if w <= 1 {
		out, err := t.Net.Forward(x)
		if err != nil {
			return 0, err
		}
		var grad *sparse.Dense
		loss, grad, err = t.Loss.Loss(out, target)
		if err != nil {
			return 0, err
		}
		if err := t.Net.Backward(grad); err != nil {
			return 0, err
		}
	} else {
		var err error
		loss, err = t.shardedStep(x, target, w)
		if err != nil {
			return 0, err
		}
	}
	if err := t.Opt.Step(t.Net.Params()); err != nil {
		return 0, err
	}
	return loss, nil
}

// shardedStep splits the minibatch across w weight-sharing replicas,
// computes per-shard gradients concurrently, and reduces them into the main
// network weighted by shard size so the result equals the single-worker
// gradient.
func (t *Trainer) shardedStep(x, target *sparse.Dense, w int) (float64, error) {
	if len(t.replicas) < w {
		for len(t.replicas) < w {
			t.replicas = append(t.replicas, t.Net.CloneShared())
		}
	}
	rows := x.Rows()
	losses := make([]float64, w)
	weights := make([]float64, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		lo := k * rows / w
		hi := (k + 1) * rows / w
		go func(k, lo, hi int) {
			defer wg.Done()
			rep := t.replicas[k]
			rep.ZeroGrads()
			xs, err := x.RowsView(lo, hi)
			if err != nil {
				errs[k] = err
				return
			}
			ts, err := target.RowsView(lo, hi)
			if err != nil {
				errs[k] = err
				return
			}
			out, err := rep.Forward(xs)
			if err != nil {
				errs[k] = err
				return
			}
			loss, grad, err := t.Loss.Loss(out, ts)
			if err != nil {
				errs[k] = err
				return
			}
			if err := rep.Backward(grad); err != nil {
				errs[k] = err
				return
			}
			losses[k] = loss
			weights[k] = float64(hi-lo) / float64(rows)
		}(k, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	mainParams := t.Net.Params()
	var loss float64
	for k := 0; k < w; k++ {
		loss += losses[k] * weights[k]
		repParams := t.replicas[k].Params()
		for i, p := range mainParams {
			rg := repParams[i].G
			scale := weights[k]
			for j := range p.G {
				p.G[j] += scale * rg[j]
			}
		}
	}
	return loss, nil
}

// TrainEpoch shuffles the dataset, walks it in minibatches and returns the
// mean loss across batches. rng state advances across calls so epochs see
// different shuffles.
func (t *Trainer) TrainEpoch(x, target *sparse.Dense, rng *rand.Rand) (float64, error) {
	if err := t.validate(); err != nil {
		return 0, err
	}
	if x.Rows() != target.Rows() {
		return 0, fmt.Errorf("%w: %d inputs vs %d targets", ErrShape, x.Rows(), target.Rows())
	}
	n := x.Rows()
	perm := rng.Perm(n)
	var total float64
	batches := 0
	bx, _ := sparse.NewDense(min(t.BatchSize, n), x.Cols())
	bt, _ := sparse.NewDense(min(t.BatchSize, n), target.Cols())
	for start := 0; start < n; start += t.BatchSize {
		end := start + t.BatchSize
		if end > n {
			end = n
		}
		size := end - start
		xb, tb := bx, bt
		if size != bx.Rows() {
			xb, _ = sparse.NewDense(size, x.Cols())
			tb, _ = sparse.NewDense(size, target.Cols())
		}
		for i := 0; i < size; i++ {
			copy(xb.RowSlice(i), x.RowSlice(perm[start+i]))
			copy(tb.RowSlice(i), target.RowSlice(perm[start+i]))
		}
		loss, err := t.TrainBatch(xb, tb)
		if err != nil {
			return 0, err
		}
		total += loss
		batches++
	}
	if batches == 0 {
		return 0, errors.New("nn: empty dataset")
	}
	return total / float64(batches), nil
}

// Fit trains for the given number of epochs and returns per-epoch stats.
func (t *Trainer) Fit(x, target *sparse.Dense, epochs int) (History, error) {
	var h History
	rng := rand.New(rand.NewSource(t.Seed))
	for e := 0; e < epochs; e++ {
		loss, err := t.TrainEpoch(x, target, rng)
		if err != nil {
			return h, err
		}
		h.Epochs = append(h.Epochs, EpochStats{Epoch: e + 1, MeanLoss: loss})
	}
	return h, nil
}

// Evaluate runs a forward pass and returns classification accuracy against
// integer labels.
func (t *Trainer) Evaluate(x *sparse.Dense, labels []int) (float64, error) {
	out, err := t.Net.Forward(x)
	if err != nil {
		return 0, err
	}
	return Accuracy(out, labels)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
