package infer

import (
	"sync/atomic"
	"time"
)

// Profiler accumulates per-layer kernel timings behind a sampling
// gate: every Nth Infer call is timed layer-by-layer — each tile reads the
// clock once per layer — and the rest pay one atomic add. Disabled engines
// (no profiler attached) pay a single atomic pointer load per Infer —
// nothing per layer.
//
// A profiler is shared across an engine and its clones (the serving
// layer's warm pools), so the per-layer tallies aggregate the whole
// pool's sampled batches. All methods are safe for concurrent use.
type Profiler struct {
	every  uint64
	tick   atomic.Uint64
	layers []layerProf
}

type layerProf struct {
	batches  atomic.Int64
	rows     atomic.Int64
	ns       atomic.Int64
	edges    atomic.Int64
	quotient atomic.Int64 // batches the layer ran as a quotient step
}

// NewProfiler builds a profiler for an engine with the given layer
// count, sampling one in every `every` batches (every <= 1 profiles
// every batch).
func NewProfiler(layers, every int) *Profiler {
	if every < 1 {
		every = 1
	}
	return &Profiler{every: uint64(every), layers: make([]layerProf, layers)}
}

// sample reports whether this Infer call should be timed.
func (p *Profiler) sample() bool {
	return p.tick.Add(1)%p.every == 0
}

// record folds one sampled layer execution into the tallies: rows
// active entering the layer, the layer's stored weight count (so
// edges = rows×nnz matches the repo's Gedges/s convention), and the
// layer's share of the batch's one dispatch, in wall time: a sampled batch's
// layers sum to the time its caller waited, whatever the worker count.
// quotient says the step ran as a quotient, which gathers every row (edges stay
// nominal: rows×nnz is what the shared chains stand for, not the multiply-adds
// spent); per-column steps gather dense rows and scatter the rest.
func (p *Profiler) record(layer, rows int, nnz int, d time.Duration, quotient bool) {
	if layer < 0 || layer >= len(p.layers) {
		return
	}
	lp := &p.layers[layer]
	lp.batches.Add(1)
	lp.rows.Add(int64(rows))
	lp.ns.Add(d.Nanoseconds())
	lp.edges.Add(int64(rows) * int64(nnz))
	if quotient {
		lp.quotient.Add(1)
	}
}

// lap is one layer's tally over the tiles of the sampled batch in flight.
type lap struct{ ns, rows atomic.Int64 }

// lap charges the time since the tile's last clock read, and the rows it
// carried, to layer l; l < 0 only starts the tile's clock.
func (e *Engine) lap(s *tileSet, l, rows int) {
	now := time.Now()
	if l >= 0 {
		e.laps[l].ns.Add(int64(now.Sub(s.t0)))
		e.laps[l].rows.Add(int64(rows))
	}
	s.t0 = now
}

// report records every layer of the sampled batch just dispatched: tiles on
// different workers overlap, so the laps sum to worker time, and each layer
// gets the dispatch's wall time in proportion to its laps.
func (e *Engine) report(prof *Profiler, wall time.Duration) {
	var sum int64
	for l := range e.laps {
		sum += e.laps[l].ns.Load()
	}
	for l := range e.laps {
		share := float64(e.laps[l].ns.Swap(0)) / float64(max(sum, 1))
		prof.record(l, int(e.laps[l].rows.Swap(0)), e.layers[l].NNZ(), time.Duration(share*float64(wall)), e.plan[l].quotient)
	}
}

// LayerProfile is one layer's accumulated sampled-kernel tallies.
type LayerProfile struct {
	Layer        int     `json:"layer"`
	NNZ          int     `json:"nnz"`
	Batches      int64   `json:"batches"`
	Quotient     int64   `json:"quotient_batches"` // of Batches, those run as a quotient step
	Rows         int64   `json:"rows"`
	Ns           int64   `json:"ns"`
	Edges        int64   `json:"edges"`
	GedgesPerSec float64 `json:"gedges_per_sec"`
}

// ProfileSnapshot is a point-in-time copy of a Profiler's tallies with
// derived throughput: per-layer and whole-stack Gedges/s over the
// sampled batches (edges/ns ≡ Gedges/s).
type ProfileSnapshot struct {
	Every        int            `json:"every"`
	Batches      int64          `json:"batches"`
	TotalNs      int64          `json:"total_ns"`
	TotalEdges   int64          `json:"total_edges"`
	GedgesPerSec float64        `json:"gedges_per_sec"`
	Layers       []LayerProfile `json:"layers"`
}

// snapshot copies the tallies; nnz supplies each layer's weight count
// for the report (the profiler itself only stores edge products).
func (p *Profiler) snapshot(nnz []int) ProfileSnapshot {
	s := ProfileSnapshot{Every: int(p.every), Layers: make([]LayerProfile, len(p.layers))}
	for i := range p.layers {
		lp := &p.layers[i]
		l := LayerProfile{
			Layer:    i,
			Batches:  lp.batches.Load(),
			Quotient: lp.quotient.Load(),
			Rows:     lp.rows.Load(),
			Ns:       lp.ns.Load(),
			Edges:    lp.edges.Load(),
		}
		if i < len(nnz) {
			l.NNZ = nnz[i]
		}
		if l.Ns > 0 {
			l.GedgesPerSec = float64(l.Edges) / float64(l.Ns)
		}
		if l.Batches > s.Batches {
			s.Batches = l.Batches
		}
		s.TotalNs += l.Ns
		s.TotalEdges += l.Edges
		s.Layers[i] = l
	}
	if s.TotalNs > 0 {
		s.GedgesPerSec = float64(s.TotalEdges) / float64(s.TotalNs)
	}
	return s
}

// EnableProfiling attaches a fresh profiler sampling every Nth batch
// (every <= 1: every batch; every < 0 is normalized to 1) and returns
// it. The profiler is shared with clones made afterwards.
func (e *Engine) EnableProfiling(every int) *Profiler {
	p := NewProfiler(len(e.layers), every)
	e.prof.Store(p)
	return p
}

// DisableProfiling detaches the profiler; subsequent Infer calls pay
// only the nil pointer load.
func (e *Engine) DisableProfiling() { e.prof.Store(nil) }

// Profile snapshots the attached profiler's tallies; ok is false when
// profiling is disabled.
func (e *Engine) Profile() (ProfileSnapshot, bool) {
	p := e.prof.Load()
	if p == nil {
		return ProfileSnapshot{}, false
	}
	nnz := make([]int, len(e.layers))
	for i, l := range e.layers {
		nnz[i] = l.NNZ()
	}
	return p.snapshot(nnz), true
}
