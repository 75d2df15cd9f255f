package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/serve"
)

// discardWriter is the cheapest http.ResponseWriter: headers kept, body
// dropped, so a router benchmark counts the router's allocations and not a
// recorder's growing buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// row512Body is a one-row /v1/infer body for model "m" at width 512 and
// 10 % non-zeros: the request of the router_row512_c1 benchmark workload.
func row512Body(tb testing.TB) []byte {
	tb.Helper()
	in, err := dataset.SparseBatch(1, 512, 51, 1)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(serve.InferRequest{Model: "m", Inputs: [][]float64{in.RowSlice(0)}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// routerFixture builds a router in front of one backend whose client runs
// on transport and returns a function that posts body through the router's
// handler, with no socket in front of it, and fails tb unless the reply is
// 200. It has run a few times already, so the router's pools are warm.
func routerFixture(tb testing.TB, backend string, transport http.RoundTripper, body []byte) func() {
	tb.Helper()
	rt, err := NewRouter(RouterConfig{
		Backends: []string{backend},
		Set:      SetConfig{Client: &http.Client{Transport: transport}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := rt.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", rd)
	w := &discardWriter{h: http.Header{}}
	post := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		clear(w.h)
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			tb.Fatalf("status %d", w.code)
		}
	}
	for range 4 {
		post()
	}
	return post
}

// cannedBackend is net/http's own transport dialing an in-memory backend
// that answers every POST with one fixed /v1/infer reply and a six-span
// header. The backend side allocates nothing per request, so what a
// request through it allocates is the router's own garbage plus the
// transport's client side.
type cannedBackend struct {
	*http.Transport
	want       []byte       // the body every request must carry
	mismatches atomic.Int64 // requests that carried another
}

func newCannedBackend(want []byte) *cannedBackend {
	out := make([]float64, 512)
	for i := range out {
		out[i] = float64(i%7) / 4
	}
	reply, _ := json.Marshal(serve.InferResponse{Model: "m", Rows: 1, Outputs: [][]float64{out}})
	head := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
		"X-Radix-Spans: admission|0.000|0.012;queue|0.012|0.004;assemble|0.016|1.071;lease|1.087|0.001;execute|1.088|0.015;deliver|1.103|0.002\r\n" +
		"Content-Length: " + strconv.Itoa(len(reply)) + "\r\n\r\n"
	c := &cannedBackend{want: want}
	c.Transport = &http.Transport{DialContext: func(context.Context, string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go c.serve(server, append([]byte(head), reply...))
		return client, nil
	}}
	return c
}

// serve answers requests on conn until it closes: it reads the head up to
// its blank line, then Content-Length bytes of body, and writes reply.
func (c *cannedBackend) serve(conn net.Conn, reply []byte) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var body []byte
	for {
		n := 0
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(bytes.TrimSpace(line)) == 0 {
				break
			}
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				for _, d := range bytes.TrimSpace(v) {
					n = 10*n + int(d-'0')
				}
			}
		}
		body = slices.Grow(body[:0], n)[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		if !bytes.Equal(body, c.want) {
			c.mismatches.Add(1)
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// bytesPerRequest posts n requests and returns the median of what the
// process allocated across each. The transport finishes a request on its
// own goroutines, so a request sometimes pays for a timer, a fresh
// connection or a pool the collector emptied; the median is the request
// that paid for none of them.
func bytesPerRequest(post func(), n int) float64 {
	per := make([]float64, n)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	last := m.TotalAlloc
	for i := range per {
		post()
		runtime.ReadMemStats(&m)
		per[i], last = float64(m.TotalAlloc-last), m.TotalAlloc
	}
	slices.Sort(per)
	return per[n/2]
}

// TestRouterAllocBudget bounds what one routed request allocates in the
// router and its transport: a one-row 512-wide request through
// Router.Handler() and net/http's transport to an in-memory backend that
// answers a canned reply with a six-span header (the backend side
// allocates nothing). It reads 5,040 B, nearly all of it net/http's: the
// outgoing request and its header map, the transport's connection
// bookkeeping and the parsed reply. serve.Client sends on the transport
// itself; through http.Client.Do, which copies the header map for
// redirects, it read 5,512 B. The router's
// own share is the retained trace (one record with room for eight spans,
// 448 B), the context that carries the body's hooks, the minted trace ID
// and the body limit. The body buffer and the relay buffer come from pools
// and the backend's spans are parsed straight into the trace; before that
// it read 41,152 B, 32 KB of it io.Copy's buffer against a writer with no
// ReadFrom. One run in 26 read 248 B more (the
// transport's read loop waiting on a timer for its write loop, request
// after request), so the budget leaves 376 B (≈ 7 %) over 5,040 B and still
// fails at any of the three: the 2 KB body copy, the ≈ 0.7 KB
// split-and-rebase stitch, a 32 KB relay buffer. The least of three rounds
// is taken.
func TestRouterAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool on purpose")
	}
	const budget = 5416
	body := row512Body(t)
	backend := newCannedBackend(body)
	t.Cleanup(backend.CloseIdleConnections)
	post := routerFixture(t, "127.0.0.1:1", backend.Transport, body)
	perReq := math.Inf(1)
	for range 3 {
		perReq = min(perReq, bytesPerRequest(post, 200))
	}
	if n := backend.mismatches.Load(); n > 0 {
		t.Fatalf("%d requests reached the backend with another body", n)
	}
	if perReq > budget {
		t.Fatalf("%.0f B allocated per routed request, budget %d", perReq, budget)
	}
	t.Logf("%.0f B allocated per routed request, budget %d", perReq, budget)
}

// BenchmarkRouterInfer drives POST /v1/infer through the router's handler
// to one in-process radixserve backend over loopback: a one-row request to
// a 512×3 model, the shape of the router_row512_c1 benchmark workload. B/op
// is what the router, the transport and the backend together allocate per
// request; TestRouterAllocBudget holds the router's own share.
func BenchmarkRouterInfer(b *testing.B) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Policy{})
	b.Cleanup(reg.Close)
	if _, err := reg.Register("m", cfg, 2); err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(reg, "127.0.0.1:0")
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	b.Cleanup(func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	post := routerFixture(b, addr, tr, row512Body(b))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		post()
	}
}
