package serve

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
)

// exchange is the storage one POST /v1/infer request lives in: the body as
// read, the request decoded from it, and the output rows the batcher writes
// in place. Exchanges are pooled, so a steady stream of requests reads and
// answers in memory the previous requests already grew: json.Unmarshal
// decodes into req.Inputs and each of its rows within their capacity,
// instead of growing a slice per row per request.
type exchange struct {
	body []byte
	req  InferRequest
	out  []float64 // every output row, back to back
}

// maxPooledFloats bounds the storage an exchange brings back to the pool
// (input rows and outputs each; the body gets eight bytes per float, the
// row headers one per eight floats), so that one outsized request does not
// leave its buffers in the pool until the next collections empty it.
// 128 Ki floats is a full default batch of 32 rows at 4096 wide.
const maxPooledFloats = 128 << 10

var exchanges = sync.Pool{New: func() any { return new(exchange) }}

func getExchange() *exchange { return exchanges.Get().(*exchange) }

// putExchange returns x to the pool unless it grew past maxPooledFloats.
// The caller must be sure nothing reads or writes x any more — in
// particular that no row of it is still queued or executing.
func putExchange(x *exchange) {
	rows := x.req.Inputs[:cap(x.req.Inputs)]
	if len(rows) > maxPooledFloats/8 || cap(x.out) > maxPooledFloats || cap(x.body) > 8*maxPooledFloats {
		return
	}
	in := 0
	for _, row := range rows {
		in += cap(row)
	}
	if in > maxPooledFloats {
		return
	}
	exchanges.Put(x)
}

// maxBodyHint caps how far a request's Content-Length is trusted to size a
// read up front. A header can claim 64 MiB and send ten bytes, or nothing
// at all for as long as the connection lives; past the hint, storage grows
// only as bytes arrive. 64 KiB holds a Graph Challenge 8-row request
// (≈ 30 KB) in one allocation.
const maxBodyHint = 64 << 10

// ReadBody reads r to EOF into dst's storage (growing it as needed) and
// returns the bytes read. size is the body's announced length, or -1 when
// unknown; reading a body whose length was announced takes one allocation at
// most, where io.ReadAll doubles its way up. Both tiers read POST /v1/infer
// bodies with it.
func ReadBody(dst []byte, r io.Reader, size int64) ([]byte, error) {
	b := dst[:0]
	if size > 0 {
		// One byte more than announced: the read that meets EOF needs room.
		b = slices.Grow(b, int(min(size, maxBodyHint-1))+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decode decodes x.body into x.req. A field the body leaves out is zero, as
// in a fresh request; Inputs keeps its storage for the rows to decode into.
func (x *exchange) decode() error {
	x.req = InferRequest{Inputs: x.req.Inputs[:0]}
	return json.Unmarshal(x.body, &x.req)
}

// output returns room for n rows of w outputs each.
func (x *exchange) output(n, w int) []float64 {
	if cap(x.out) < n*w {
		x.out = make([]float64, n*w)
	}
	x.out = x.out[:n*w]
	return x.out
}
