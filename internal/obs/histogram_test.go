package obs

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		v := c.v
		if v < 0 {
			v = 0
		}
		if got := bucketOf(v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Bucket invariant: bucket i holds 2^(i-1) < v <= 2^i.
	for i := 1; i < 40; i++ {
		lo, hi := BucketBound(i-1), BucketBound(i)
		if bucketOf(lo+1) != i || bucketOf(hi) != i {
			t.Fatalf("bucket %d bounds violated: bucketOf(%d)=%d bucketOf(%d)=%d",
				i, lo+1, bucketOf(lo+1), hi, bucketOf(hi))
		}
		if bucketOf(lo) == i {
			t.Fatalf("bucket %d lower bound inclusive: bucketOf(%d)=%d", i, lo, bucketOf(lo))
		}
	}
}

func TestHistogramQuantileKnownDistribution(t *testing.T) {
	// 1000 observations uniformly spread over (0, 100ms]: quantiles are
	// known analytically, and the log-bucket estimate read off the
	// exposition ladder must land within the containing power-of-two
	// bucket (factor-2 error bound).
	f := testSeconds("t_seconds")
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(int64(i) * int64(100*time.Millisecond) / 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	for _, c := range []struct {
		q    float64
		true float64 // ns
	}{
		{0.50, 50e6}, {0.90, 90e6}, {0.99, 99e6},
	} {
		got := f.Scraped(s).Quantile(c.q) * 1e9
		if got < c.true/2 || got > c.true*2 {
			t.Errorf("q%.2f = %.3gns, want within 2x of %.3g", c.q, got, c.true)
		}
	}
	// A point mass is recovered within its bucket.
	var pm Histogram
	for i := 0; i < 100; i++ {
		pm.Observe(int64(3 * time.Millisecond))
	}
	// 3ms lands in bucket 22 (2097152, 4194304]ns; the estimate must stay
	// within those bucket bounds.
	got := f.Scraped(pm.Snapshot()).Quantile(0.99) * 1e9
	if got < float64(BucketBound(21)) || got > float64(BucketBound(22)) {
		t.Errorf("point-mass p99 = %v, want within bucket 22 bounds", time.Duration(got))
	}
}

func TestHistogramExpositionExactBuckets(t *testing.T) {
	var h Histogram
	h.Observe(int64(5 * time.Microsecond))  // 5000ns -> bucket 13 (le 8192ns)
	h.Observe(int64(3 * time.Millisecond))  // bucket 22 (le ~4.19ms)
	h.Observe(int64(40 * time.Millisecond)) // bucket 26 (le ~67.1ms)
	h.Observe(1)                            // bucket 0, below the ladder: folds into first le
	f := testSeconds("t_seconds", "model")
	text := expose(f, h.Snapshot(), "m")

	wantLines := []string{
		// First emitted bound: 2^12/1e9.
		`t_seconds_bucket{model="m",le="4.096e-06"} 1`,
		// 5µs lands in bucket 13 (8192ns).
		`t_seconds_bucket{model="m",le="8.192e-06"} 2`,
		// 3ms in bucket 22 (4194304ns).
		`t_seconds_bucket{model="m",le="0.004194304"} 3`,
		// 40ms in bucket 26 (67108864ns).
		`t_seconds_bucket{model="m",le="0.067108864"} 4`,
		`t_seconds_bucket{model="m",le="+Inf"} 4`,
		`t_seconds_count{model="m"} 4`,
	}
	for _, want := range wantLines {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// Ladder size: buckets 12..34 plus +Inf.
	if got := strings.Count(text, "t_seconds_bucket{"); got != maxExpoBucket-minExpoBucket+2 {
		t.Errorf("bucket line count = %d, want %d", got, maxExpoBucket-minExpoBucket+2)
	}
	// Cumulative counts must be monotone non-decreasing.
	prev := uint64(0)
	hs := MergeHist(f, nil, []Label{{"model", "m"}}, ParseScrape(text))
	if len(hs) != 1 {
		t.Fatal("MergeHist failed on own exposition")
	}
	for i, c := range hs[0].Hist.Cum {
		if c < prev {
			t.Fatalf("non-monotone cum at %d", i)
		}
		prev = c
	}
}

func TestScrapeRoundTrip(t *testing.T) {
	// A histogram written by the Writer and re-read through ParseScrape
	// must preserve count, sum and every bucket: it is Family.Scraped of
	// the snapshot.
	var h Histogram
	for i := 1; i <= 500; i++ {
		h.Observe(int64(i) * int64(time.Millisecond) / 10) // 0.1ms..50ms
	}
	snap := h.Snapshot()
	f := testSeconds("t_seconds", "model", "class")
	sc := ParseScrape(expose(f, snap, "m", "c"))
	if err := sc.Check(); err != nil {
		t.Fatal(err)
	}
	hs := MergeHist(f, nil, []Label{{"model", "m"}, {"class", "c"}}, sc)
	if len(hs) != 1 {
		t.Fatal("no series found")
	}
	hist := hs[0].Hist
	if hist.Count != snap.Count {
		t.Fatalf("count = %d, want %d", hist.Count, snap.Count)
	}
	if want := f.Scraped(snap); !reflect.DeepEqual(hist.Les, want.Les) || !reflect.DeepEqual(hist.Cum, want.Cum) || hist.Sum != want.Sum {
		t.Fatalf("scrape of the exposition differs from Family.Scraped of the snapshot:\n got %+v\nwant %+v", hist, want)
	}
	// Aggregation across label-distinct series: same family, two models,
	// merged whole and merged per model.
	var w Writer
	w.Family(f).Hist(snap, "m", "c")
	w.Hist(snap, "m2", "c")
	both := ParseScrape(string(w.Bytes()))
	all := MergeHist(f, nil, []Label{{"class", "c"}}, both)
	if len(all) != 1 || all[0].Hist.Count != 2*snap.Count {
		t.Fatalf("aggregate = %+v, want one series of count %d", all, 2*snap.Count)
	}
	if per := MergeHist(f, []string{"model"}, nil, both, nil, sc); len(per) != 2 || per[0].Values[0] != "m" ||
		per[0].Hist.Count != 2*snap.Count || per[1].Key != `model="m2"` || per[1].Hist.Count != snap.Count {
		t.Fatalf("per-model merge over two scrapes (and a failed one) = %+v", per)
	}
	// Window diff.
	win := all[0].Hist.Sub(hist)
	if win.Count != snap.Count {
		t.Fatalf("window count = %d, want %d", win.Count, snap.Count)
	}
}

// TestScrapedHistAdd: the zero value is the identity on either side, a
// histogram on another ladder is left out instead of replacing the sum so
// far, and neither operand is changed.
func TestScrapedHistAdd(t *testing.T) {
	les := []float64{1, 2}
	a := ScrapedHist{Les: les, Cum: []uint64{1, 3}, Count: 4, Sum: 5}
	b := ScrapedHist{Les: les, Cum: []uint64{10, 20}, Count: 30, Sum: 7}
	ab := ScrapedHist{Les: les, Cum: []uint64{11, 23}, Count: 34, Sum: 12}
	noBuckets := ScrapedHist{Count: 9, Sum: 9}
	for _, tc := range []struct {
		name       string
		h, o, want ScrapedHist
	}{
		{"same ladder", a, b, ab},
		{"zero left", ScrapedHist{}, b, b},
		{"zero right", a, ScrapedHist{}, a},
		{"no buckets right", a, noBuckets, a},
		{"other ladder right", a, ScrapedHist{Les: []float64{1}, Cum: []uint64{2}, Count: 2, Sum: 1}, a},
	} {
		h, o := tc.h, tc.o
		h.Cum, o.Cum = slices.Clone(h.Cum), slices.Clone(o.Cum)
		if got := h.Add(o); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(h, tc.h) || !reflect.DeepEqual(o, tc.o) {
			t.Errorf("%s: Add changed an operand: %+v, %+v", tc.name, h, o)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const G, N = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	// Concurrent snapshots while observers run.
	f := testSeconds("t_seconds")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = f.Scraped(h.Snapshot()).Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	if got := h.Snapshot().Count; got != G*N {
		t.Fatalf("count = %d, want %d", got, G*N)
	}
}

func TestWindowedMax(t *testing.T) {
	var m WindowedMax
	m.Observe(10)
	m.Observe(50)
	m.Observe(30)
	if m.Value() != 50 {
		t.Fatalf("value = %d", m.Value())
	}
	if got := m.Rotate(); got != 50 {
		t.Fatalf("rotate 1 = %d", got)
	}
	// Previous window still covers the peak for one more scrape.
	if got := m.Rotate(); got != 50 {
		t.Fatalf("rotate 2 = %d", got)
	}
	// Two rotations later the old peak has aged out.
	if got := m.Rotate(); got != 0 {
		t.Fatalf("rotate 3 = %d", got)
	}
	m.Observe(7)
	if got := m.Rotate(); got != 7 {
		t.Fatalf("rotate after observe = %d", got)
	}
}

func TestWindowedMaxConcurrent(t *testing.T) {
	var m WindowedMax
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.Observe(int64(i))
				if i%64 == 0 {
					_ = m.Value()
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Value() != 1999 {
		t.Fatalf("value = %d, want 1999", m.Value())
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v += 977
		}
	})
}
