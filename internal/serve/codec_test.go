package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/radix"
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

// exchangeBodies are bodies decoded one after another into one exchange,
// each against what it decodes to fresh. A null in a row is a value
// json.Unmarshal leaves as it found it, which fresh is zero: after
// [[0.25,9,9]], [[1,null,3]] must read [1 0 3], not the previous
// request's 9.
var exchangeBodies = []string{
	`{"model":"n","inputs":[[1,-0,2.5e-3],[],[7]]}`,
	`{"model":"m"}`,
	`{"inputs":[[1,2]]}`,
	`{"inputs":[[0.25,9,9]]}`,
	`{"inputs":[[1,null,3]]}`,
	`{"inputs":[[5,6,7],[8,9]]}`,
	`{"inputs":[null,[null,null]]}`,
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
	// big again after smaller bodies: rows cut short by a smaller request
	// must be read back out at full width.
	seq := append([]string{string(big)}, exchangeBodies[:2]...)
	seq = append(seq, string(big))
	seq = append(seq, exchangeBodies[2:]...)
	seq = append(seq, string(big))
	x := new(exchange)
	for _, body := range seq {
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
// on two shapes. An 8-row Graph Challenge 1024×24 request, the
// serve_gc1024x24_burst2 shape, used to cost ≈ 42 KB a row (json.Decoder's
// growing buffer, a reflect-grown slice per input row, a fresh output row);
// with exchanges pooled and the body decoded and the reply written without
// encoding/json it cost ≈ 573 B, and ≈ 501 B since the span header is built
// in the exchange and the trace holds its spans. One 512-wide row, the
// serve_row512_c1 shape, shows what a request costs whatever its rows, which
// the 8-row budget spreads thin: ≈ 1,208 B (was ≈ 1,784 B with the header
// built in a strings.Builder, a trace-filing closure and the scheduler's
// span chain copied behind admission), what the request's pending row and
// completion channel, its response, the trace with room for its six spans,
// and the header's string cost. Each budget leaves 24 B per row over the
// measure for runtime noise: less than the 32 B a row that growing pending
// past 184 B costs at 8 rows (the slab's next size class). Each collector owns its staging buffer, so no
// round pays for one; the least of three rounds is still taken, because a
// single round can catch a runtime allocation that is no cost per row (one
// of 36 read 631 B on the 8-row shape when it measured 573 B).
func TestHandleInferAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool on purpose")
	}
	gc, err := core.GraphChallengeConfig(1024, 24)
	if err != nil {
		t.Fatal(err)
	}
	row512, err := core.NewConfig([]radix.System{radix.MustNew(8, 8, 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cfg    core.Config
		rows   int
		budget float64
	}{{"gc1024x24_rows8", gc, 8, 525}, {"row512_rows1", row512, 1, 1232}} {
		t.Run(c.name, func(t *testing.T) {
			serve := handlerFixture(t, c.cfg, c.rows)
			perRow := math.Inf(1)
			for range 3 {
				b, _ := bytesPerRow(serve, 20, c.rows)
				perRow = min(perRow, b)
			}
			if perRow > c.budget {
				t.Fatalf("%.0f B allocated per row served, budget %.0f", perRow, c.budget)
			}
			t.Logf("%.0f B allocated per row served, budget %.0f", perRow, c.budget)
		})
	}
}

// TestHTTPInferCancelledClientsKeepRepliesExact races clients that give up
// while their rows are queued against clients that wait, on one collector.
// A departed client's rows still read its inputs and write its outputs after
// its handler returns, so its exchange must not be pooled; if it were, a
// later request would decode into storage a stale batch still writes, and
// the waiting clients' outputs — checked bit for bit — or the race detector
// would say so.
func TestHTTPInferCancelledClientsKeepRepliesExact(t *testing.T) {
	_, m, ts := newTestServer(t, Policy{MaxBatch: 8, MaxLatency: 2 * time.Millisecond}, 1)
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

// routerPeek is what the cluster router decoded a request into before it
// read bodies with PeekInferRequest: the oracle for the peek.
type routerPeek struct {
	Model      string  `json:"model"`
	Class      string  `json:"class"`
	DeadlineMs float64 `json:"deadline_ms"`
}

// FuzzInferRequestDecode holds the /v1/infer decoder to json.Unmarshal: for
// any body, decoding into a fresh exchange and into one that has decoded
// every earlier input either fails where json.Unmarshal into a fresh
// InferRequest fails or gives the same request, bit for bit on every float.
// PeekInferRequest fails where json.Unmarshal into routerPeek fails and
// otherwise reads the same model, class and deadline.
func FuzzInferRequestDecode(f *testing.F) {
	for _, body := range exchangeBodies {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"model":"mé\n","class":"b\"\\\/\b\f\r\t","inputs":[[1]]}`,
		`{"model":"mé","class":"😀\ud800x","inputs":[]}`,
		"{\"model\":\"\xff\xfe\",\"inputs\":[[2]]}",
		`{"MODEL":"m","Inputs":[[1]],"CLASS":"c","Deadline_MS":3,"CATEGORIES":true}`,
		`{"claſs":"c","inputſ":[[1]],"model":"m"}`,
		`{"model":"a","model":"b","inputs":[[1,2,3]],"inputs":[[null,5]],"inputs":[[null,null,null,null]]}`,
		`{"inputs":[[1],[2]],"inputs":[[3]],"inputs":[[null],[null]]}`,
		`{"inputs":[[1,2]],"inputs":[[]],"inputs":[[null,null]]}`,
		`{"inputs":[[1,2]],"inputs":null,"inputs":[[null]]}`,
		`{"model":"m","inputs":[[1e400]]}`,
		`{"model":"m","inputs":[[1e-400,-1e-400]],"deadline_ms":1e400}`,
		`{"model":"m","other":1e400,"inputs":[[-0,0.0,-0.0]]}`,
		`{"inputs":[[01]]}`, `{"inputs":[[.5]]}`, `{"inputs":[[+1]]}`, `{"inputs":[[1.]]}`,
		`{"inputs":[[1e]]}`, `{"inputs":[[-]]}`, `{"inputs":[[1E+2,1e-2,123456789012345678901234]]}`,
		`{"inputs":[[1]]}x`, `{"inputs":[[1]]} `, ` {"inputs":[[1]]}}`, `{"inputs":[[1]],}`,
		`{"inputs":[[[1]]]}`, `{"inputs":[1]}`, `{"inputs":{"a":1}}`, `{"inputs":"x"}`,
		`null`, ` null `, `{"model":null,"class":null,"deadline_ms":null,"categories":null,"inputs":null}`,
		`{"inputs":[null]}`, `{"inputs":[[null]]}`, `[]`, `"m"`, `1`, `true`, ``, `{`,
		`{"x":{"y":[true,false,null,"s",{"z":-1.5e3}]},"model":"m"}`,
		`{"model":1}`, `{"class":true}`, `{"deadline_ms":"5"}`, `{"categories":1}`,
		"{\"model\":\"a\x01\"}", `{"model":"\x"}`, `{"model":"\u12"}`, `{"a" 1}`, `{1:2}`,
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	} {
		f.Add([]byte(body))
	}
	used := new(exchange)
	used.body = []byte(`{"inputs":[[9,9,9,9,9],[9,9,9,9,9],[9,9,9,9,9]]}`)
	if err := used.decode(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want InferRequest
		wantErr := json.Unmarshal(body, &want)
		for _, x := range []*exchange{new(exchange), used} {
			x.body = append(x.body[:0], body...)
			err := x.decode()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%q: decoder error %v, json.Unmarshal error %v", body, err, wantErr)
			}
			if err == nil {
				if d := sameInferRequest(x.req, want); d != "" {
					t.Fatalf("%q: %s differs from json.Unmarshal's", body, d)
				}
			}
		}
		var old routerPeek
		oldErr := json.Unmarshal(body, &old)
		peek, err := PeekInferRequest(body)
		if (err != nil) != (oldErr != nil) {
			t.Fatalf("%q: peek error %v, json.Unmarshal error %v", body, err, oldErr)
		}
		if err == nil && (peek.Model != old.Model || peek.Class != old.Class ||
			math.Float64bits(peek.DeadlineMs) != math.Float64bits(old.DeadlineMs) ||
			peek.Inputs != nil || peek.Categories) {
			t.Fatalf("%q: peek read %+v, json.Unmarshal %+v", body, peek, old)
		}
	})
}

// TestAppendResponseMatchesEncoder holds the 200 reply to encoding/json:
// on seeded random responses appendResponse writes exactly the bytes
// json.NewEncoder(w).Encode(resp) writes, and it fails where Encode fails.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	const two53 = 1 << 53
	specials := []float64{
		0, math.Copysign(0, -1), 32, -32, 1, 0.5, 0.1, 1e20, 123456.789,
		two53 - 1, -(two53 - 1), two53, -two53, two53 + 2, math.Nextafter(two53, 0), math.Nextafter(-two53, 0),
		1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1e-10, 1.5e-300,
		1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), 1e22, 1e300,
		5e-324, -5e-324, 3 * 5e-324, math.Nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64,
	}
	names := []string{"", "m", "gc1024x24", "<script>&amp;</script>", "line\u2028para\u2029end",
		"\xff\xfe bad \xc3", "\u00e9 \u2013 \ufffd", "quote\" back\\ ctl\x00\x01\x1f\b\f\n\r\t\x7f"}
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return float64(rng.Intn(65) - 32)
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	name := func() string { return names[rng.Intn(len(names))] }
	for k := 0; k < 2000; k++ {
		resp := InferResponse{Model: name(), Rows: rng.Intn(9) - 1, Class: name(), TraceID: name()}
		if rng.Intn(2) == 0 {
			resp.QueueWaitMs, resp.ExecuteMs = float(), float()
		}
		if rng.Intn(8) != 0 {
			resp.Outputs = make([][]float64, rng.Intn(4))
			for i := range resp.Outputs {
				if rng.Intn(8) == 0 {
					continue // a nil row
				}
				resp.Outputs[i] = make([]float64, rng.Intn(6))
				for j := range resp.Outputs[i] {
					resp.Outputs[i][j] = float()
				}
			}
		}
		for range rng.Intn(4) {
			resp.Spans = append(resp.Spans, obs.Span{Name: name(), StartMs: float(), DurMs: float()})
		}
		if rng.Intn(2) == 0 { // categories on
			n := rng.Intn(4)
			resp.Active, resp.Argmax = make([]bool, n), make([]int, n)
			for i := range n {
				resp.Active[i], resp.Argmax[i] = rng.Intn(2) == 0, rng.Intn(2048)-1024
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := appendResponse([]byte("stale"), &resp)
		if err != nil || !bytes.Equal(got[len("stale"):], want.Bytes()) {
			t.Fatalf("response %d: wrote %s (%v), encoding/json writes %s", k, got, err, want.Bytes())
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, resp := range []InferResponse{
			{Outputs: [][]float64{{1, v}}},
			{ExecuteMs: v},
			{Spans: []obs.Span{{Name: "queue", DurMs: v}}},
		} {
			if err := json.NewEncoder(io.Discard).Encode(resp); err == nil {
				t.Fatalf("encoding/json wrote %v", v)
			}
			if _, err := appendResponse(nil, &resp); !errors.Is(err, errNotFinite) {
				t.Fatalf("%+v: %v, want errNotFinite", resp, err)
			}
		}
	}
}
