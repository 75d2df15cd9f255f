package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"testing"
)

// inferBody is a valid /v1/infer body for model whose one row is n copies
// of v: the router peeks at it, so it must parse.
func inferBody(model string, n int, v string) []byte {
	return []byte(`{"model":"` + model + `","inputs":[[` + strings.Repeat(v+",", n-1) + v + `]]}`)
}

// heldBodies is an http.RoundTripper that answers the first request 400 at
// once and keeps its body open and unread, as a transport still writing a
// request the backend refused early may; every later request it reads,
// closes and answers 200. It reports nothing through httptrace.
type heldBodies struct {
	held io.ReadCloser
	got  [][]byte
}

func (h *heldBodies) RoundTrip(r *http.Request) (*http.Response, error) {
	status := http.StatusOK
	if h.held == nil {
		h.held, status = r.Body, http.StatusBadRequest
	} else {
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		h.got = append(h.got, b)
	}
	return &http.Response{StatusCode: status, Header: http.Header{}, Body: http.NoBody, Request: r}, nil
}

// TestPooledBodyOutlivesEarlyReply: a transport may read a request body
// after the reply is back, so a routed body's buffer must not go back to
// the pool — and under the next request — while it can. Over sockets,
// through net/http's transport, the backend answers 400 before it reads a
// body too big for the socket buffers to take at once, and the next
// request is forwarded byte-identical; under -race, a buffer reused while
// the transport still writes from it is a reported race. A transport of
// another kind that holds the refused request's body and reads it after
// later requests still reads that request.
func TestPooledBodyOutlivesEarlyReply(t *testing.T) {
	t.Run("held", func(t *testing.T) {
		tr := &heldBodies{}
		rt, err := NewRouter(RouterConfig{Backends: []string{"127.0.0.1:1"}, Set: SetConfig{Client: &http.Client{Transport: tr}}})
		if err != nil {
			t.Fatal(err)
		}
		first, second := inferBody("m", 4096, "1"), inferBody("m", 4096, "2")
		for i, c := range []struct {
			body []byte
			want int
		}{{first, http.StatusBadRequest}, {second, http.StatusOK}, {second, http.StatusOK}} {
			w := &discardWriter{h: http.Header{}}
			req, _ := http.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(c.body))
			rt.Handler().ServeHTTP(w, req)
			if w.code != c.want {
				t.Fatalf("request %d: status %d, want %d", i, w.code, c.want)
			}
		}
		for i, got := range tr.got {
			if !bytes.Equal(got, second) {
				t.Fatalf("request %d forwarded %.40q…, not its body", i+1, got)
			}
		}
		got, err := io.ReadAll(tr.held)
		tr.held.Close()
		if err != nil || !bytes.Equal(got, first) {
			t.Fatalf("the held body reads %.40q… (%v) after later requests, not its own", got, err)
		}
	})

	t.Run("sockets", func(t *testing.T) {
		want := make(chan []byte, 1)
		backend := fakeBackend(t, []string{"early", "m"}, func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength > 1<<18 {
				w.WriteHeader(http.StatusBadRequest) // before the body is read
				return
			}
			got, err := io.ReadAll(r.Body)
			if exp := <-want; err != nil || !bytes.Equal(got, exp) {
				http.Error(w, fmt.Sprintf("forwarded %d bytes (%v), not the %d-byte request", len(got), err, len(exp)), http.StatusUnprocessableEntity)
				return
			}
			w.WriteHeader(http.StatusOK)
		})
		_, url := startRouter(t, RouterConfig{Backends: []string{backend.URL}})
		early := inferBody("early", 150_000, "0") // ≈ 300 KB, under the pool's bound
		post := func(body []byte) int {
			resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusUnprocessableEntity {
				t.Fatalf("backend: %s", msg)
			}
			return resp.StatusCode
		}
		for i := range 20 {
			if code := post(early); code != http.StatusBadRequest {
				t.Fatalf("round %d: early refusal relayed as %d", i, code)
			}
			next := inferBody("m", 2000+i, fmt.Sprint(i%10))
			want <- next
			if code := post(next); code != http.StatusOK {
				t.Fatalf("round %d: status %d", i, code)
			}
		}
	})
}

// TestPooledBodyHooks pins the count behind the router's body pool: a
// body goes back only when the handler has let go and every write that got
// a connection has been reported, a report with no write under way changes
// nothing, and a transport other than net/http's, or a context that
// already carries a client trace, gets a fresh buffer the pool never sees.
func TestPooledBodyHooks(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Backends: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	p, ctx := rt.forwardBody(context.Background())
	trace := httptrace.ContextClientTrace(ctx)
	if p.fresh || trace != &p.trace {
		t.Fatal("net/http's transport: the body is not pooled, or its hooks are not on the forwards' context")
	}
	trace.WroteRequest(httptrace.WroteRequestInfo{}) // no write under way
	trace.GotConn(httptrace.GotConnInfo{})
	trace.GotConn(httptrace.GotConnInfo{})
	trace.WroteRequest(httptrace.WroteRequestInfo{})
	p.release()
	if got := p.state.Load(); got != 1 {
		t.Fatalf("state %d after the handler let go with one write under way, want 1", got)
	}
	trace.WroteRequest(httptrace.WroteRequestInfo{})
	if got := p.state.Load(); got != 0 {
		t.Fatalf("state %d after the last write was reported, want 0", got)
	}

	if p, _ := rt.forwardBody(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{})); !p.fresh {
		t.Fatal("a context with its own client trace got a pooled body")
	}
	custom, err := NewRouter(RouterConfig{Backends: []string{"127.0.0.1:1"}, Set: SetConfig{Client: &http.Client{Transport: &heldBodies{}}}})
	if err != nil {
		t.Fatal(err)
	}
	if p, ctx := custom.forwardBody(context.Background()); !p.fresh || httptrace.ContextClientTrace(ctx) != nil {
		t.Fatal("a custom transport got a pooled body")
	}
}
