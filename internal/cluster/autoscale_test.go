package cluster

import (
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
)

// cannedNode is one backend's cumulative load signals for model "m", and
// the /metrics scrape a cycle would read them from.
type cannedNode struct {
	wait               obs.Histogram
	accepted, rejected float64
}

func (n *cannedNode) serve(rows int, wait time.Duration, rejected int) {
	for range rows {
		n.wait.Observe(wait.Nanoseconds())
	}
	n.accepted += float64(rows)
	n.rejected += float64(rejected)
}

func (n *cannedNode) scrape() *obs.Scrape {
	var w obs.Writer
	w.Family(serve.MetricRowsAccepted).Float(n.accepted, "m")
	w.Family(serve.MetricRowsRejected).Float(n.rejected, "m")
	w.Family(serve.MetricQueueWait).Hist(n.wait.Snapshot(), "m", serve.ClassInteractive)
	return obs.ParseScrape(string(w.Bytes()))
}

// TestAutoscaleWindowsSurviveMembershipChange is the regression for the
// phantom spike: backend b carries a long, slow, 429-heavy history, misses
// one cycle's scrape (ejected, or the scrape failed) and returns. Windowed
// on the fleet-merged series, cycle 2 clamped to nothing and cycle 3 booked
// b's whole history as one interval's traffic; per backend, every cycle
// sees exactly what was served in it. Then m is scaled in off b and out
// onto it again: b's new copy counts from zero, and differenced against
// the old copy's report its window clamped to nothing.
func TestAutoscaleWindowsSurviveMembershipChange(t *testing.T) {
	backends := []*Backend{{id: "a"}, {id: "b"}}
	var a, b cannedNode
	prev := loadWindows{}
	check := func(cycle int, scrapes []*obs.Scrape, rows, rejected uint64, p90Below time.Duration) {
		t.Helper()
		windows := prev.advance(backends, scrapes)
		w, ok := windows["m"]
		if !ok || len(windows) != 1 {
			t.Fatalf("cycle %d: windows %+v, want one for model m", cycle, windows)
		}
		if w.wait.Count != rows || w.accepted != rows || w.rejected != rejected {
			t.Errorf("cycle %d: window holds %d waits, %d accepted, %d rejected; want %d, %d, %d",
				cycle, w.wait.Count, w.accepted, w.rejected, rows, rows, rejected)
		}
		if p90 := time.Duration(w.wait.Quantile(0.90) * float64(time.Second)); p90 >= p90Below {
			t.Errorf("cycle %d: queue-wait p90 %v, want under %v", cycle, p90, p90Below)
		}
	}

	a.serve(100, time.Millisecond, 0)
	b.serve(1000, 80*time.Millisecond, 500) // b's history
	check(1, []*obs.Scrape{a.scrape(), b.scrape()}, 1100, 500, time.Second)

	a.serve(100, time.Millisecond, 0)
	check(2, []*obs.Scrape{a.scrape(), nil}, 100, 0, 4*time.Millisecond)

	a.serve(100, time.Millisecond, 0)
	b.serve(10, time.Millisecond, 0)
	check(3, []*obs.Scrape{a.scrape(), b.scrape()}, 110, 0, 4*time.Millisecond)

	a.serve(100, time.Millisecond, 0)
	check(4, []*obs.Scrape{a.scrape(), obs.ParseScrape("")}, 100, 0, 4*time.Millisecond)

	b = cannedNode{}
	a.serve(100, time.Millisecond, 0)
	b.serve(50, time.Millisecond, 0)
	check(5, []*obs.Scrape{a.scrape(), b.scrape()}, 150, 0, 4*time.Millisecond)
}
