package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// target is what a workload drives: one verified operation at a time on
// each of its connections.
type target interface {
	// do performs operation op on connection conn and compares every output
	// word with the oracle. It reports false on a transport error, a non-200
	// status or any differing word. tr may be nil (tracing off).
	do(ctx context.Context, conn, op int, tr *Tracer) bool
	// counters snapshots the target's public serve/cluster counters.
	counters() counters
	close(ctx context.Context) error
}

// counters are the monotone public counters a phase takes deltas of.
type counters struct {
	batches, batchedRows, rejected float64 // serve.Metrics, summed over backends
	requests, failovers            float64 // cluster.RouterMetricsSnapshot
}

func (c counters) sub(prev counters) counters {
	return counters{c.batches - prev.batches, c.batchedRows - prev.batchedRows,
		c.rejected - prev.rejected, c.requests - prev.requests, c.failovers - prev.failovers}
}

// window is one equal-work slice of a phase.
type window struct {
	RowsPerS float64
	// P50Ms is the median latency of the window's own operations (0 when
	// none succeeded).
	P50Ms  float64
	Traced bool
}

// phase is what was measured between two instants.
type phase struct {
	Attempted, Failed int       // requests
	Rows              int       // rows verified correct
	LatMs             []float64 // one per successful operation (per burst when Conns > 1)
	LateMs            []float64 // schedule-driven only: actual send − due, per request
	Windows           []window
	Counters          counters
}

// plan says how much a phase runs.
type plan struct {
	opsPerWindow int
	// seconds bounds the phase: a closed loop ends at the first window
	// boundary at or after it, a schedule-driven phase runs the whole
	// number of windows that covers it.
	seconds float64
	// windows, when nonzero, fixes the window count instead (warm-up and
	// -verify-only run exactly one).
	windows int
	// between, when set, runs on connection 0 after each window, outside a
	// closed loop's window clocks (the traced run samples host.spin_ms
	// there).
	between func()
	// firstOp offsets operation indices so successive phases continue
	// through the input order instead of restarting it.
	firstOp int
}

// opRec is one request as its connection saw it.
type opRec struct {
	from time.Time // closed loop: when it started; schedule-driven: when it was due
	sent time.Time // when it actually started (later than from when the generator ran late)
	done time.Time // when its reply had been verified
	ok   bool
}

// runPhase drives tg from one goroutine per connection, each with one
// request in flight. tracers holds one tracer per connection, or is nil;
// with tracers, odd windows record spans and even ones do not, interleaved
// so host drift lands on both sides of the traced-versus-untraced comparison.
//
// Closed loop (one connection): the next operation starts when the previous
// reply has been verified. Schedule-driven: every connection is due a
// request at start + Due(j), whether or not its previous reply has arrived;
// a connection that is still busy sends late, and the request is still timed
// from its due time, so a stall is charged to every request it delayed. The
// requests due at one instant form one operation (a burst): its latency runs
// from the due time to the last verified reply, which is what a caller that
// spread its rows over the connections waits for.
func runPhase(ctx context.Context, s Spec, tg target, p plan, tracers []*Tracer) (*phase, error) {
	conns := max(1, s.Conns)
	if conns > 1 && s.Period == 0 {
		return nil, fmt.Errorf("bench: %s: a closed loop with %d connections has no shared window boundary", s.Name, conns)
	}
	windows := p.windows
	if windows == 0 && s.Period > 0 {
		windows = int(math.Ceil(p.seconds / s.Due(p.opsPerWindow).Seconds()))
	}
	before := tg.counters()
	recs := make([][]opRec, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 1; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[c] = runConn(ctx, s, tg, p, c, conns, windows, start, tracers)
		}()
	}
	recs[0] = runConn(ctx, s, tg, p, 0, conns, windows, start, tracers)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ph := &phase{Counters: tg.counters().sub(before)}
	n := p.opsPerWindow
	for w := 0; (w+1)*n <= len(recs[0]); w++ {
		// Closed-loop windows start when their first operation does; the
		// windows of a schedule are contiguous slices of it, and one ends
		// when the next begins or when its last reply arrived, if that is
		// later (the server fell behind, and goodput drops below the
		// schedule).
		wstart, wend := recs[0][w*n].sent, recs[0][(w+1)*n-1].done
		if s.Period > 0 {
			wend = start.Add(s.Due((w + 1) * n))
			if (w+1)*n < len(recs[0]) {
				wend = recs[0][(w+1)*n].sent
			}
		}
		rows := 0
		var lat []float64
		for j := w * n; j < (w+1)*n; j++ {
			burstOK, last := true, time.Time{}
			for c := range recs {
				r := recs[c][j]
				ph.Attempted++
				if s.Period > 0 {
					ph.LateMs = append(ph.LateMs, ms(r.sent.Sub(r.from)))
				}
				if r.done.After(wend) {
					wend = r.done
				}
				if r.done.After(last) {
					last = r.done
				}
				if r.ok {
					rows += s.RowsPerOp
				} else {
					ph.Failed++
					burstOK = false
				}
			}
			if burstOK {
				lat = append(lat, ms(last.Sub(recs[0][j].from)))
			}
		}
		ph.Windows = append(ph.Windows, window{
			RowsPerS: float64(rows) / wend.Sub(wstart).Seconds(),
			P50Ms:    Median(lat),
			Traced:   tracers != nil && w%2 == 1,
		})
		ph.Rows += rows
		ph.LatMs = append(ph.LatMs, lat...)
	}
	return ph, nil
}

// runConn is one connection's share of a phase. It stops early only when
// ctx ends, which runPhase reports.
func runConn(ctx context.Context, s Spec, tg target, p plan, conn, conns, windows int, start time.Time, tracers []*Tracer) []opRec {
	var recs []opRec
	for w := 0; windows == 0 || w < windows; w++ {
		var tr *Tracer
		if tracers != nil && w%2 == 1 {
			tr = tracers[conn]
		}
		for i := 0; i < p.opsPerWindow; i++ {
			if ctx.Err() != nil {
				return recs
			}
			j := w*p.opsPerWindow + i
			r := opRec{sent: time.Now()}
			r.from = r.sent
			if s.Period > 0 {
				r.from = start.Add(s.Due(j))
				if wait := r.from.Sub(r.sent); wait > 0 {
					time.Sleep(wait)
					r.sent = time.Now()
				}
			}
			// Connections interleave through the input order, so the
			// requests of one burst never carry the same rows.
			r.ok = tg.do(ctx, conn, p.firstOp+j*conns+conn, tr)
			r.done = time.Now()
			recs = append(recs, r)
		}
		if conn == 0 && p.between != nil {
			p.between()
		}
		if windows == 0 && time.Since(start).Seconds() >= p.seconds {
			break
		}
	}
	return recs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
