// Package autoscale is the replica control loop's brain: a pure decision
// controller that turns per-model load observations (fleet-merged
// queue-wait p90, 429 rate, throughput, SLO burn state) into bounded
// replica-count moves. It owns no clocks, no HTTP, and no cluster state —
// the router feeds it one ModelStats batch per evaluation interval and
// actuates whatever Decisions come back — which is what makes the loop's
// stability provable and its unit tests exhaustive.
//
// Stability argument. Four policy properties, all enforced by Validate,
// bound the closed loop:
//
//  1. Hysteresis: the scale-up threshold is strictly above the scale-down
//     threshold, so there is a dead band in which the controller holds —
//     a workload whose p90 settles anywhere inside it never oscillates.
//  2. Cooldown: after any actuation a model is frozen for Cooldown
//     intervals, so the loop never reacts to load it has not yet had a
//     chance to redistribute (registration + ring widening take effect
//     within one interval; Cooldown ≥ 1 covers it).
//  3. Bounded step: one decision moves a model by at most MaxStep
//     replicas, so even a pathological metrics spike cannot slam the
//     fleet from min to max in one interval.
//  4. Down-streak: scale-in additionally requires DownAfter consecutive
//     below-band intervals, so a workload alternating between busy and
//     idle intervals ratchets up but never flaps down-up-down.
//
// Together: replica counts move monotonically toward the band, by bounded
// steps, at bounded frequency, within [MinReplicas, MaxReplicas] — a
// constant offered load therefore converges to a fixed point in at most
// (MaxReplicas−MinReplicas)/MaxStep × Cooldown intervals and stays there.
package autoscale

import (
	"fmt"
	"sort"
	"time"
)

// Defaults applied by Policy.Validate for zero fields.
const (
	DefaultInterval    = 5 * time.Second
	DefaultMaxStep     = 1
	DefaultCooldown    = 3
	DefaultDownAfter   = 3
	DefaultScaleUpP90  = 50 * time.Millisecond
	defaultDownDivisor = 4 // ScaleDownP90 = ScaleUpP90 / 4
)

// Rate429High is the rejected-request fraction (rejected / offered) above
// which a model scales out regardless of queue-wait. ShedClass is the QoS
// class shed as a last resort when a model's SLO stays violated at its
// replica ceiling; shedding clears once the model strings together a
// below-band streak.
const (
	Rate429High = 0.05
	ShedClass   = "background"
)

// Policy bounds the control loop. The zero value validates to the
// defaults above; an explicit policy must keep ScaleDownP90 strictly
// below ScaleUpP90 (the hysteresis dead band) and MinReplicas ≤
// MaxReplicas when both are set.
type Policy struct {
	// Interval is the evaluation period — how often the router scrapes the
	// fleet and calls Evaluate. Default 5s.
	Interval time.Duration
	// MinReplicas floors every model's replica count. Default 1.
	MinReplicas int
	// MaxReplicas caps every model's replica count; 0 means "the fleet
	// size" (the per-model ceiling the caller reports in ModelStats).
	MaxReplicas int
	// MaxStep bounds how many replicas one decision adds or removes.
	// Default 1.
	MaxStep int
	// Cooldown is how many evaluation intervals a model is frozen after
	// any actuation, so the loop observes the effect of its last move
	// before making another. Default 3.
	Cooldown int
	// UpAfter is how many consecutive above-band intervals a model must
	// string together before it may scale out on queue-wait or 429
	// pressure. One interval's p90 is hostage to whatever else stalled the
	// host during it — a GC cycle, a noisy neighbor, an engine build — and
	// reacting to a single spiked window is how control loops chase their
	// own tail. SLO-violated pressure is exempt: the burn-rate evaluation
	// is already debounced by its own dual windows. Default 1 (react
	// immediately).
	UpAfter int
	// DownAfter is how many consecutive below-band intervals a model must
	// string together before it may scale in. Default 3.
	DownAfter int
	// ScaleUpP90 is the fleet-merged queue-wait p90 above which a model
	// scales out. Default 50ms.
	ScaleUpP90 time.Duration
	// ScaleDownP90 is the queue-wait p90 below which (together with a zero
	// 429 rate and a healthy SLO) a model counts a below-band interval.
	// Must be strictly less than ScaleUpP90. Default ScaleUpP90/4.
	ScaleDownP90 time.Duration
	// MinSamples is the fewest queue-wait observations a window must hold
	// before its p90 may trigger a scale-out. A p90 computed over a handful
	// of rows is noise — on a loaded host a single stalled request pushes a
	// near-idle model past any threshold — and acting on it cascades:
	// every actuation perturbs the very signal the next evaluation reads.
	// The gate applies only to the queue-wait path; 429 rate and SLO burn
	// carry their own evidence and still actuate. 0 disables the gate.
	MinSamples int
}

// Validate fills defaults in place and rejects inconsistent policies.
func (p *Policy) Validate() error {
	if p.Interval <= 0 {
		p.Interval = DefaultInterval
	}
	if p.MinReplicas <= 0 {
		p.MinReplicas = 1
	}
	if p.MaxReplicas < 0 {
		return fmt.Errorf("autoscale: MaxReplicas %d is negative", p.MaxReplicas)
	}
	if p.MaxReplicas > 0 && p.MaxReplicas < p.MinReplicas {
		return fmt.Errorf("autoscale: MaxReplicas %d below MinReplicas %d", p.MaxReplicas, p.MinReplicas)
	}
	if p.MaxStep <= 0 {
		p.MaxStep = DefaultMaxStep
	}
	if p.Cooldown <= 0 {
		p.Cooldown = DefaultCooldown
	}
	if p.UpAfter <= 0 {
		p.UpAfter = 1
	}
	if p.DownAfter <= 0 {
		p.DownAfter = DefaultDownAfter
	}
	if p.ScaleUpP90 <= 0 {
		p.ScaleUpP90 = DefaultScaleUpP90
	}
	if p.ScaleDownP90 <= 0 {
		p.ScaleDownP90 = p.ScaleUpP90 / defaultDownDivisor
	}
	if p.ScaleDownP90 >= p.ScaleUpP90 {
		return fmt.Errorf("autoscale: ScaleDownP90 %v must be strictly below ScaleUpP90 %v (hysteresis dead band)",
			p.ScaleDownP90, p.ScaleUpP90)
	}
	return nil
}

// ModelStats is one model's load observation over the last evaluation
// window, as measured by the caller (the router: fleet-merged histograms
// windowed against the previous scrape).
type ModelStats struct {
	// Model is the registry name.
	Model string
	// Replicas is the model's current effective replica count.
	Replicas int
	// Ceiling is the model's maximum possible replica count this interval
	// (the fleet size); Policy.MaxReplicas tightens it when set. ≤ 0 means
	// unconstrained.
	Ceiling int
	// QueueWaitP90 is the fleet-merged queue-wait p90 over the window.
	QueueWaitP90 time.Duration
	// Samples is how many queue-wait observations the window holds — the
	// merged histogram's count delta. Policy.MinSamples reads it.
	Samples uint64
	// Rate429 is rejected/(accepted+rejected) over the window; 0 when no
	// requests were offered.
	Rate429 float64
	// Throughput is accepted rows/s over the window (reported on Status,
	// not used for decisions).
	Throughput float64
	// SLOViolated reports whether any of the model's burn-rate objectives
	// is in the violated state (both windows burning).
	SLOViolated bool
}

// Decision is one actuation the caller should apply. Exactly one of the
// three kinds is populated: a replica move (To != From), a shed
// installation (Shed != ""), or a shed clearance (Unshed).
type Decision struct {
	Model  string `json:"model"`
	From   int    `json:"from,omitempty"`
	To     int    `json:"to,omitempty"`
	Shed   string `json:"shed,omitempty"`
	Unshed bool   `json:"unshed,omitempty"`
	Reason string `json:"reason"`
}

// modelState is the controller's per-model memory between intervals.
type modelState struct {
	lastAction int // tick of the most recent actuation (0 = never)
	highStreak int // consecutive above-band intervals
	lowStreak  int // consecutive below-band intervals
	stable     int // consecutive intervals without an actuation
	shedding   bool
	last       ModelStats
	lastReason string
}

// Controller evaluates one Policy over successive ModelStats batches.
// Not safe for concurrent use; the router serializes calls on its loop
// goroutine.
type Controller struct {
	pol   Policy
	tick  int
	state map[string]*modelState
}

// New validates the policy (filling defaults) and returns a controller.
func New(pol Policy) (*Controller, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Controller{pol: pol, state: make(map[string]*modelState)}, nil
}

// Policy returns the validated (defaults-filled) policy.
func (c *Controller) Policy() Policy { return c.pol }

// ceiling resolves a model's effective max replica count.
func (c *Controller) ceiling(stat ModelStats) int {
	max := stat.Ceiling
	if max <= 0 || (c.pol.MaxReplicas > 0 && c.pol.MaxReplicas < max) {
		if c.pol.MaxReplicas > 0 {
			max = c.pol.MaxReplicas
		}
	}
	if max > 0 && max < c.pol.MinReplicas {
		max = c.pol.MinReplicas
	}
	return max
}

// Evaluate advances the controller one interval and returns the bounded
// actuations for this batch, in model order. Models absent from the batch
// keep their state; models never seen before start a fresh history (no
// instant scale-in on first sight).
func (c *Controller) Evaluate(stats []ModelStats) []Decision {
	c.tick++
	var out []Decision
	sort.Slice(stats, func(i, j int) bool { return stats[i].Model < stats[j].Model })
	for _, stat := range stats {
		st := c.state[stat.Model]
		if st == nil {
			st = &modelState{}
			c.state[stat.Model] = st
		}
		st.last = stat
		d := c.evalModel(stat, st)
		if d != nil {
			st.lastAction = c.tick
			st.stable = 0
			st.lastReason = d.Reason
			out = append(out, *d)
		} else {
			st.stable++
		}
	}
	return out
}

// evalModel is one model's decision: nil means hold.
func (c *Controller) evalModel(stat ModelStats, st *modelState) *Decision {
	p90Up := stat.QueueWaitP90 >= c.pol.ScaleUpP90 &&
		(c.pol.MinSamples <= 0 || stat.Samples >= uint64(c.pol.MinSamples))
	pressure := p90Up ||
		stat.Rate429 >= Rate429High ||
		stat.SLOViolated
	down := !pressure &&
		stat.QueueWaitP90 <= c.pol.ScaleDownP90 &&
		stat.Rate429 == 0 &&
		!stat.SLOViolated

	// The streaks advance every interval regardless of cooldown, so a
	// model exiting cooldown with a long history may act immediately.
	if pressure {
		st.highStreak++
	} else {
		st.highStreak = 0
	}
	if down {
		st.lowStreak++
	} else {
		st.lowStreak = 0
	}
	// SLO-violated pressure skips the up-debounce (see Policy.UpAfter).
	up := pressure && (st.highStreak >= c.pol.UpAfter || stat.SLOViolated)
	if st.lastAction != 0 && c.tick-st.lastAction < c.pol.Cooldown {
		return nil // frozen: the last move's effect is still propagating
	}
	max := c.ceiling(stat)
	switch {
	case up && (max <= 0 || stat.Replicas < max):
		to := stat.Replicas + c.pol.MaxStep
		if max > 0 && to > max {
			to = max
		}
		if to <= stat.Replicas {
			return nil
		}
		return &Decision{
			Model: stat.Model, From: stat.Replicas, To: to,
			Reason: upReason(stat, c.pol),
		}
	case up && stat.SLOViolated && !st.shedding:
		// At the replica ceiling with the SLO still burning: shed the
		// sacrificial class so the protected classes can recover.
		st.shedding = true
		return &Decision{
			Model: stat.Model, Shed: ShedClass,
			Reason: fmt.Sprintf("slo violated at replica ceiling %d; shedding class %q", max, ShedClass),
		}
	case down && st.lowStreak >= c.pol.DownAfter && st.shedding:
		// Recovery unwinds in reverse: readmit the shed class first, and
		// only consider surrendering replicas in later intervals.
		st.shedding = false
		return &Decision{
			Model: stat.Model, Unshed: true,
			Reason: fmt.Sprintf("recovered (%d low intervals); readmitting shed class", st.lowStreak),
		}
	case down && st.lowStreak >= c.pol.DownAfter && stat.Replicas > c.pol.MinReplicas:
		to := stat.Replicas - c.pol.MaxStep
		if to < c.pol.MinReplicas {
			to = c.pol.MinReplicas
		}
		return &Decision{
			Model: stat.Model, From: stat.Replicas, To: to,
			Reason: fmt.Sprintf("queue-wait p90 %v <= %v for %d intervals",
				stat.QueueWaitP90.Round(time.Microsecond), c.pol.ScaleDownP90, st.lowStreak),
		}
	}
	return nil
}

// upReason names which signal tripped the scale-out, most severe first.
func upReason(stat ModelStats, pol Policy) string {
	switch {
	case stat.SLOViolated:
		return "slo objective violated"
	case stat.Rate429 >= Rate429High:
		return fmt.Sprintf("429 rate %.1f%% >= %.1f%%", 100*stat.Rate429, 100*Rate429High)
	default:
		return fmt.Sprintf("queue-wait p90 %v >= %v",
			stat.QueueWaitP90.Round(time.Microsecond), pol.ScaleUpP90)
	}
}

// ModelStatus is one model's control-loop state, for status endpoints and
// convergence checks.
type ModelStatus struct {
	Model           string  `json:"model"`
	Replicas        int     `json:"replicas"`
	QueueWaitP90Ms  float64 `json:"queue_wait_p90_ms"`
	Samples         uint64  `json:"samples"`
	Rate429         float64 `json:"rate_429"`
	Throughput      float64 `json:"throughput_rows_per_sec"`
	SLOViolated     bool    `json:"slo_violated,omitempty"`
	Shedding        bool    `json:"shedding,omitempty"`
	StableIntervals int     `json:"stable_intervals"`
	LowStreak       int     `json:"low_streak"`
	LastReason      string  `json:"last_reason,omitempty"`
}

// Status snapshots every model the controller has seen, sorted by name.
func (c *Controller) Status() []ModelStatus {
	names := make([]string, 0, len(c.state))
	for name := range c.state {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModelStatus, 0, len(names))
	for _, name := range names {
		st := c.state[name]
		out = append(out, ModelStatus{
			Model:           name,
			Replicas:        st.last.Replicas,
			QueueWaitP90Ms:  float64(st.last.QueueWaitP90) / float64(time.Millisecond),
			Samples:         st.last.Samples,
			Rate429:         st.last.Rate429,
			Throughput:      st.last.Throughput,
			SLOViolated:     st.last.SLOViolated,
			Shedding:        st.shedding,
			StableIntervals: st.stable,
			LowStreak:       st.lowStreak,
			LastReason:      st.lastReason,
		})
	}
	return out
}
