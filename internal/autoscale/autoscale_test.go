package autoscale

import (
	"testing"
	"time"
)

// pol returns a tight test policy: 1-interval cooldown and down-streak so
// single-step behavior is observable, hysteresis band 10ms..40ms.
func pol() Policy {
	return Policy{
		MinReplicas:  1,
		MaxStep:      1,
		Cooldown:     1,
		DownAfter:    1,
		ScaleUpP90:   40 * time.Millisecond,
		ScaleDownP90: 10 * time.Millisecond,
	}
}

func mustNew(t *testing.T, p Policy) *Controller {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidateDefaults(t *testing.T) {
	var p Policy
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Interval != DefaultInterval || p.MinReplicas != 1 || p.MaxStep != DefaultMaxStep ||
		p.Cooldown != DefaultCooldown || p.DownAfter != DefaultDownAfter ||
		p.ScaleUpP90 != DefaultScaleUpP90 || p.ScaleDownP90 != DefaultScaleUpP90/4 {
		t.Fatalf("defaults not applied: %+v", p)
	}
}

func TestValidateRejectsInvertedHysteresis(t *testing.T) {
	p := Policy{ScaleUpP90: 10 * time.Millisecond, ScaleDownP90: 10 * time.Millisecond}
	if err := p.Validate(); err == nil {
		t.Fatal("equal up/down thresholds must be rejected (no dead band)")
	}
	p = Policy{MinReplicas: 4, MaxReplicas: 2}
	if err := p.Validate(); err == nil {
		t.Fatal("MaxReplicas < MinReplicas must be rejected")
	}
}

func TestScaleUpOnHighQueueWait(t *testing.T) {
	c := mustNew(t, pol())
	ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: 2, Ceiling: 8, QueueWaitP90: 100 * time.Millisecond}})
	if len(ds) != 1 || ds[0].To != 3 || ds[0].From != 2 {
		t.Fatalf("want one 2→3 scale-up, got %+v", ds)
	}
}

func TestScaleUpOn429Rate(t *testing.T) {
	c := mustNew(t, pol())
	ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: 2, Ceiling: 8, Rate429: 0.2}})
	if len(ds) != 1 || ds[0].To != 3 {
		t.Fatalf("want scale-up on 429 rate, got %+v", ds)
	}
}

func TestScaleUpOnSLOViolation(t *testing.T) {
	c := mustNew(t, pol())
	ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: 2, Ceiling: 8, SLOViolated: true}})
	if len(ds) != 1 || ds[0].To != 3 || ds[0].Reason != "slo objective violated" {
		t.Fatalf("want SLO-driven scale-up, got %+v", ds)
	}
}

func TestDeadBandHolds(t *testing.T) {
	c := mustNew(t, pol())
	// 25ms sits between the 10ms down and 40ms up thresholds: hold forever.
	for i := 0; i < 10; i++ {
		ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: 3, Ceiling: 8, QueueWaitP90: 25 * time.Millisecond}})
		if len(ds) != 0 {
			t.Fatalf("interval %d: dead-band load must hold, got %+v", i, ds)
		}
	}
	if st := c.Status(); st[0].StableIntervals != 10 {
		t.Fatalf("want 10 stable intervals, got %d", st[0].StableIntervals)
	}
}

func TestCooldownFreezesAfterActuation(t *testing.T) {
	p := pol()
	p.Cooldown = 3
	c := mustNew(t, p)
	hot := ModelStats{Model: "m", Replicas: 2, Ceiling: 8, QueueWaitP90: 100 * time.Millisecond}
	if ds := c.Evaluate([]ModelStats{hot}); len(ds) != 1 {
		t.Fatalf("want initial scale-up, got %+v", ds)
	}
	hot.Replicas = 3
	// Two more hot intervals inside the cooldown: frozen.
	for i := 0; i < 2; i++ {
		if ds := c.Evaluate([]ModelStats{hot}); len(ds) != 0 {
			t.Fatalf("cooldown interval %d: want hold, got %+v", i, ds)
		}
	}
	// Cooldown expired: acts again.
	if ds := c.Evaluate([]ModelStats{hot}); len(ds) != 1 || ds[0].To != 4 {
		t.Fatalf("want 3→4 after cooldown, got %+v", ds)
	}
}

func TestMaxStepBoundsMove(t *testing.T) {
	p := pol()
	p.MaxStep = 2
	c := mustNew(t, p)
	ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: 1, Ceiling: 8, QueueWaitP90: time.Second}})
	if len(ds) != 1 || ds[0].To != 3 {
		t.Fatalf("want bounded 1→3 despite extreme load, got %+v", ds)
	}
}

func TestCeilingCapsScaleUp(t *testing.T) {
	c := mustNew(t, pol())
	ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: 4, Ceiling: 4, QueueWaitP90: time.Second}})
	if len(ds) != 0 {
		t.Fatalf("at ceiling without SLO violation: want hold, got %+v", ds)
	}
	p := pol()
	p.MaxReplicas = 3
	c = mustNew(t, p)
	ds = c.Evaluate([]ModelStats{{Model: "m", Replicas: 2, Ceiling: 8, QueueWaitP90: time.Second}})
	if len(ds) != 1 || ds[0].To != 3 {
		t.Fatalf("policy MaxReplicas must cap below fleet size, got %+v", ds)
	}
}

func TestScaleDownRequiresStreak(t *testing.T) {
	p := pol()
	p.DownAfter = 3
	c := mustNew(t, p)
	idle := ModelStats{Model: "m", Replicas: 4, Ceiling: 8, QueueWaitP90: time.Millisecond}
	for i := 0; i < 2; i++ {
		if ds := c.Evaluate([]ModelStats{idle}); len(ds) != 0 {
			t.Fatalf("streak interval %d: want hold, got %+v", i, ds)
		}
	}
	ds := c.Evaluate([]ModelStats{idle})
	if len(ds) != 1 || ds[0].To != 3 || ds[0].From != 4 {
		t.Fatalf("want 4→3 after 3 low intervals, got %+v", ds)
	}
}

func TestBusySpikeResetsDownStreak(t *testing.T) {
	p := pol()
	p.DownAfter = 2
	c := mustNew(t, p)
	idle := ModelStats{Model: "m", Replicas: 4, Ceiling: 8, QueueWaitP90: time.Millisecond}
	mid := ModelStats{Model: "m", Replicas: 4, Ceiling: 8, QueueWaitP90: 25 * time.Millisecond}
	c.Evaluate([]ModelStats{idle})
	c.Evaluate([]ModelStats{mid}) // dead band: resets the streak
	if ds := c.Evaluate([]ModelStats{idle}); len(ds) != 0 {
		t.Fatalf("streak must restart after a dead-band interval, got %+v", ds)
	}
}

func TestScaleDownFloorsAtMin(t *testing.T) {
	p := pol()
	p.MinReplicas = 2
	c := mustNew(t, p)
	idle := ModelStats{Model: "m", Replicas: 2, Ceiling: 8, QueueWaitP90: time.Millisecond}
	for i := 0; i < 5; i++ {
		if ds := c.Evaluate([]ModelStats{idle}); len(ds) != 0 {
			t.Fatalf("at MinReplicas: want hold, got %+v", ds)
		}
	}
}

func TestShedAtCeilingAndRecovery(t *testing.T) {
	c := mustNew(t, pol())
	violated := ModelStats{Model: "m", Replicas: 4, Ceiling: 4, SLOViolated: true, QueueWaitP90: time.Second}
	ds := c.Evaluate([]ModelStats{violated})
	if len(ds) != 1 || ds[0].Shed != ShedClass {
		t.Fatalf("SLO violation at ceiling must shed %q, got %+v", ShedClass, ds)
	}
	// Still violated: no duplicate shed decisions.
	if ds := c.Evaluate([]ModelStats{violated}); len(ds) != 0 {
		t.Fatalf("shed must be emitted once, got %+v", ds)
	}
	// Recovered: the first low interval readmits the class (before any
	// replica scale-in).
	idle := ModelStats{Model: "m", Replicas: 4, Ceiling: 4, QueueWaitP90: time.Millisecond}
	ds = c.Evaluate([]ModelStats{idle})
	if len(ds) != 1 || !ds[0].Unshed {
		t.Fatalf("recovery must unshed first, got %+v", ds)
	}
	// Next low interval: now replicas may come down.
	ds = c.Evaluate([]ModelStats{idle})
	if len(ds) != 1 || ds[0].To != 3 {
		t.Fatalf("want 4→3 after unshed, got %+v", ds)
	}
}

// TestConvergenceUnderConstantLoad is the stability property end to end: a
// constant overload converges to the ceiling and stays there; a constant
// idle load converges to the floor and stays there. No oscillation either
// way.
func TestConvergenceUnderConstantLoad(t *testing.T) {
	c := mustNew(t, pol())
	replicas := 1
	for i := 0; i < 20; i++ {
		ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: replicas, Ceiling: 6, QueueWaitP90: time.Second}})
		for _, d := range ds {
			if d.To != 0 {
				if d.To < d.From {
					t.Fatalf("interval %d: overload must never scale down, got %+v", i, d)
				}
				replicas = d.To
			}
		}
	}
	if replicas != 6 {
		t.Fatalf("constant overload must converge to ceiling 6, got %d", replicas)
	}
	for i := 0; i < 20; i++ {
		ds := c.Evaluate([]ModelStats{{Model: "m", Replicas: replicas, Ceiling: 6, QueueWaitP90: time.Millisecond}})
		for _, d := range ds {
			if d.To != 0 {
				if d.To > d.From {
					t.Fatalf("interval %d: idle must never scale up, got %+v", i, d)
				}
				replicas = d.To
			}
		}
	}
	if replicas != 1 {
		t.Fatalf("constant idle must converge to floor 1, got %d", replicas)
	}
}

func TestStatusReflectsLastStats(t *testing.T) {
	c := mustNew(t, pol())
	c.Evaluate([]ModelStats{
		{Model: "b", Replicas: 2, Ceiling: 8, QueueWaitP90: 25 * time.Millisecond, Throughput: 123},
		{Model: "a", Replicas: 1, Ceiling: 8, QueueWaitP90: 25 * time.Millisecond},
	})
	st := c.Status()
	if len(st) != 2 || st[0].Model != "a" || st[1].Model != "b" {
		t.Fatalf("want sorted [a b], got %+v", st)
	}
	if st[1].Throughput != 123 || st[1].QueueWaitP90Ms != 25 {
		t.Fatalf("status must echo the last stats, got %+v", st[1])
	}
}
