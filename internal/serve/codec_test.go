package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
)

// sameInferRequest reports where got and want differ, bit for bit on every
// float; "" when they do not. A nil and an empty Inputs are the same request.
func sameInferRequest(got, want InferRequest) string {
	switch {
	case got.Model != want.Model:
		return "model"
	case got.Class != want.Class:
		return "class"
	case math.Float64bits(got.DeadlineMs) != math.Float64bits(want.DeadlineMs):
		return "deadline_ms"
	case got.Categories != want.Categories:
		return "categories"
	case len(got.Inputs) != len(want.Inputs):
		return "row count"
	}
	for i := range want.Inputs {
		if len(got.Inputs[i]) != len(want.Inputs[i]) {
			return "row width"
		}
		for j, v := range want.Inputs[i] {
			if math.Float64bits(got.Inputs[i][j]) != math.Float64bits(v) {
				return "input value"
			}
		}
	}
	return ""
}

// TestExchangeDecode pins what pooling the request may change and what it
// may not. A request decoded into a used exchange is the request a fresh
// InferRequest decodes to — no field, row or value left over from the one
// before — and once the exchange has held a request that big, decoding
// another allocates nothing per row.
func TestExchangeDecode(t *testing.T) {
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = make([]float64, 1024)
		rows[i][i*7] = 0.25
	}
	big, err := json.Marshal(InferRequest{Model: "m", Class: ClassBatch, DeadlineMs: 12.5, Categories: true, Inputs: rows})
	if err != nil {
		t.Fatal(err)
	}
	x := new(exchange)
	for _, body := range []string{
		string(big),
		`{"model":"n","inputs":[[1,-0,2.5e-3],[],[7]]}`,
		string(big),
		`{"model":"m"}`,
		`{"inputs":[[1,2]]}`,
	} {
		var want InferRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		x.body = []byte(body)
		if err := x.decode(); err != nil {
			t.Fatalf("%.40s: %v", body, err)
		}
		if d := sameInferRequest(x.req, want); d != "" {
			t.Fatalf("%.40s: %s differs from a fresh decode", body, d)
		}
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	x.body = big
	allocs := testing.AllocsPerRun(20, func() {
		if err := x.decode(); err != nil {
			t.Fatal(err)
		}
	})
	// The decoder's state and parse stacks, the model and class names: a
	// count that does not grow with the rows.
	if allocs > 8 {
		t.Fatalf("decoding into a warm exchange: %.0f allocations, want ≤ 8", allocs)
	}
}

// TestReadBody pins the reader both tiers use for /v1/infer bodies: one
// allocation for an announced length, none into storage already big
// enough, and a length claim trusted only up to maxBodyHint.
func TestReadBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	body := strings.Repeat("0,", 4000)
	rd := strings.NewReader(body)
	if n := testing.AllocsPerRun(10, func() {
		rd.Reset(body)
		b, err := ReadBody(nil, rd, int64(len(body)))
		if err != nil || string(b) != body {
			t.Fatalf("read %d bytes, %v", len(b), err)
		}
	}); n > 1 {
		t.Errorf("announced length: %.0f allocations, want 1", n)
	}
	dst := make([]byte, 0, 2*len(body))
	if n := testing.AllocsPerRun(10, func() {
		rd.Reset(body)
		if b, _ := ReadBody(dst, rd, -1); len(b) != len(body) {
			t.Fatalf("read %d bytes", len(b))
		}
	}); n > 0 {
		t.Errorf("warm storage: %.0f allocations, want 0", n)
	}
	// A client that announces a body and never sends it holds no more
	// memory than the hint while the server waits.
	for _, c := range []struct {
		claim int64
		body  string
	}{{1 << 20, ""}, {60 << 20, "{}"}} {
		b, err := ReadBody(nil, strings.NewReader(c.body), c.claim)
		if err != nil || string(b) != c.body || cap(b) > maxBodyHint {
			t.Fatalf("a %d-byte claim on %q: %q, cap %d, %v", c.claim, c.body, b, cap(b), err)
		}
	}
}

// TestHandleInferAllocBudget bounds what the request path allocates per row
// of an 8-row Graph Challenge 1024×24 request — the serve_gc1024x24_burst2
// shape. The handler used to allocate ≈ 42 KB a row (json.Decoder's growing
// buffer, a reflect-grown slice per input row, a fresh output row); with
// exchanges pooled it is under 1 KB, so 4 KB is a budget a regression to
// per-row slices cannot hide under.
func TestHandleInferAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool on purpose")
	}
	cfg, err := core.GraphChallengeConfig(1024, 24)
	if err != nil {
		t.Fatal(err)
	}
	const rows, budget = 8, 4096
	serve := handlerFixture(t, cfg, rows)
	perRow, _ := bytesPerRow(serve, 20, rows)
	if perRow > budget {
		t.Fatalf("%.0f B allocated per row served, budget %d", perRow, budget)
	}
	t.Logf("%.0f B allocated per row served, budget %d", perRow, budget)
}

// TestHTTPInferCancelledClientsKeepRepliesExact races clients that give up
// while their rows are queued against clients that wait, on one collector.
// A departed client's rows still read its inputs and write its outputs after
// its handler returns, so its exchange must not be pooled; if it were, a
// later request would decode into storage a stale batch still writes, and
// the waiting clients' outputs — checked bit for bit — or the race detector
// would say so.
func TestHTTPInferCancelledClientsKeepRepliesExact(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond, Workers: 1}, 1)
	in, err := dataset.SparseBatch(12, m.InputWidth(), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceOutputs(t, m.Config(), in)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				first := (c + k) % 10
				rows := [][]float64{in.RowSlice(first), in.RowSlice(first + 1), in.RowSlice(first + 2)}
				body, err := json.Marshal(InferRequest{Model: "m", Inputs: rows})
				if err != nil {
					t.Error(err)
					return
				}
				ctx := context.Background()
				if c%2 == 1 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(k%5)*200*time.Microsecond)
					defer cancel()
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue // a client that gave up
				}
				var got InferResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if c%2 == 1 {
					continue
				}
				if err != nil || resp.StatusCode != http.StatusOK || len(got.Outputs) != len(rows) {
					t.Errorf("status %d, %d outputs, %v", resp.StatusCode, len(got.Outputs), err)
					return
				}
				for i, row := range got.Outputs {
					for j, v := range row {
						if math.Float64bits(v) != math.Float64bits(want[first+i][j]) {
							t.Errorf("client %d request %d row %d col %d: %v, want %v", c, k, i, j, v, want[first+i][j])
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
