package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
)

// maxPooledBody bounds the buffer a request body brings back to the pool,
// so that one outsized request does not stay in it until the next
// collections empty it. 1 MiB holds a full default batch of 32 rows at
// 4096 wide, as the backend's own exchange does.
const maxPooledBody = 1 << 20

// bodies holds pooled request bodies; its New is set in init, because a
// body's hooks put it back in the pool.
var bodies sync.Pool

func init() {
	bodies.New = func() any {
		p := new(pooledBody)
		p.trace = httptrace.ClientTrace{
			GotConn:      func(httptrace.GotConnInfo) { p.state.Add(1) },
			WroteRequest: func(httptrace.WroteRequestInfo) { p.wrote() },
		}
		return p
	}
}

// pooledBody is a routed request's body, read once and posted as it came
// to each backend attempt. It goes back to the pool only when nothing can
// read it any more. The handler is one reader. net/http's transport is
// the other: it may still be writing a body after Do returns, when a
// backend answers before reading it, and a failover posts the same bytes
// again. The transport reads a request body only while it writes the
// request, after a connection is got (httptrace GotConn) and before it
// reports the write done, failed or not (WroteRequest). So the buffer
// goes back once the handler has let go and every write that got a
// connection has been reported. A write that got a connection and never
// ran keeps it out of the pool for good, which costs an allocation and
// nothing else.
//
// The body travels as the plain bytes.Reader serve.Client gives it. The
// transport sends such a body with its headers in one write; a reader of
// the router's own would be sent in two, through a fresh buffer the size
// of the body, and closing it would have been the only signal.
type pooledBody struct {
	b []byte
	// state is handlerRef while the handler holds b, plus one per write
	// under way.
	state atomic.Int64
	// trace carries the two hooks. It is set when p is made and never
	// written again: the transport may read its fields after p is back in
	// the pool.
	trace httptrace.ClientTrace
	fresh bool // not from the pool, and never put in it
}

const handlerRef = 1 << 32

// forwardBody returns the buffer a request's body is read into and the
// context its forwards run under. The buffer comes from the pool, and the
// context carries its hooks, when the router's transport is net/http's and
// ctx carries no client trace of its own (httptrace would compose that
// trace into the pooled one). Otherwise it is a fresh buffer the pool
// never sees.
func (rt *Router) forwardBody(ctx context.Context) (*pooledBody, context.Context) {
	if !rt.poolBodies || httptrace.ContextClientTrace(ctx) != nil {
		return &pooledBody{fresh: true}, ctx
	}
	p := bodies.Get().(*pooledBody)
	p.state.Store(handlerRef)
	return p, httptrace.WithClientTrace(ctx, &p.trace)
}

// wrote counts one write done. A report with no write under way is not
// one of p's and is ignored.
func (p *pooledBody) wrote() {
	for {
		s := p.state.Load()
		if s&(handlerRef-1) == 0 {
			return
		}
		if p.state.CompareAndSwap(s, s-1) {
			if s == 1 {
				p.put()
			}
			return
		}
	}
}

// release is the handler letting go.
func (p *pooledBody) release() {
	if p.state.Add(-handlerRef) == 0 {
		p.put()
	}
}

func (p *pooledBody) put() {
	if !p.fresh && cap(p.b) <= maxPooledBody {
		bodies.Put(p)
	}
}

// poolsBodies reports whether a router forwarding through c may pool
// request bodies: only when its transport is net/http's own, whose reads of
// a body the hooks bracket. Any other RoundTripper may read a body after
// it returns without saying so, and gets a fresh buffer per request.
func poolsBodies(c *http.Client) bool {
	rt := c.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	_, ok := rt.(*http.Transport)
	return ok
}

// relayChunk is the size of the buffers replies are relayed through, what
// io.Copy would take from net/http for each reply.
const relayChunk = 32 << 10

var relayBufs = sync.Pool{New: func() any { return new([relayChunk]byte) }}

// copyReply copies a backend reply's body to the client through a pooled
// buffer. io.Copy finds the server's ReadFrom and pays for a limit reader
// and two interface conversions per reply; client disconnects are benign,
// so a failed write ends the copy without a word.
func copyReply(w http.ResponseWriter, body io.Reader) {
	buf := relayBufs.Get().(*[relayChunk]byte)
	defer relayBufs.Put(buf)
	for {
		n, err := body.Read(buf[:])
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
