package obs

import (
	"net/http"
	"net/http/pprof"
	"runtime"
)

// RuntimeExposition declares one tier's Go runtime families under its
// prefix ("radixserve" or "radixrouter") — live goroutines, heap bytes in
// use, total GC pause seconds, completed GC cycles — and returns the
// function that writes their current readings, appended to /metrics so a
// fleet's scheduler pressure and GC behaviour are scrapeable alongside
// the request-path histograms.
func RuntimeExposition(tier string) func(w *Writer) {
	goroutines := NewGauge(tier+"_goroutines", "Live goroutines.")
	heapAlloc := NewGauge(tier+"_heap_alloc_bytes", "Heap bytes in use.")
	gcPause := NewCounter(tier+"_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.")
	gcCycles := NewCounter(tier+"_gc_cycles_total", "Completed GC cycles.")
	return func(w *Writer) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Family(goroutines).Int(int64(runtime.NumGoroutine()))
		w.Family(heapAlloc).Int(int64(ms.HeapAlloc))
		w.Family(gcPause).Float(float64(ms.PauseTotalNs) / 1e9)
		w.Family(gcCycles).Int(int64(ms.NumGC))
	}
}

// RegisterPprof mounts net/http/pprof's handlers on mux under
// /debug/pprof/. Opt-in: the servers only call this when profiling is
// enabled, so production muxes don't expose profiling by default.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
