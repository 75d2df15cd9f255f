package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/radix-net/radixnet/internal/obs"
)

// memTransport answers requests in memory — no listener, no socket — and
// records what became of every reply body it handed out. It is the seam a
// fault-injecting fleet simulation seeds: answer is free to delay, fail or
// truncate.
type memTransport struct {
	answer func(*http.Request) (*http.Response, error)

	mu     sync.Mutex
	bodies []*trackedBody
}

// trackedBody records whether a reply body was read to EOF and closed.
type trackedBody struct {
	io.Reader
	eof, closed bool
}

func (b *trackedBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *trackedBody) Close() error {
	b.closed = true
	return nil
}

func (m *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := m.answer(req)
	if err != nil {
		return nil, err
	}
	body := &trackedBody{Reader: resp.Body}
	resp.Body = body
	m.mu.Lock()
	m.bodies = append(m.bodies, body)
	m.mu.Unlock()
	return resp, nil
}

// checkBodies requires every reply so far to have been closed and, unless
// it was refused for its size, read to EOF.
func (m *memTransport) checkBodies(t *testing.T, wantEOF bool) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.bodies) == 0 {
		t.Fatal("no reply was handed out")
	}
	for i, b := range m.bodies {
		if !b.closed || b.eof != wantEOF {
			t.Errorf("reply %d of %d: closed=%v eof=%v, want closed and eof=%v", i+1, len(m.bodies), b.closed, b.eof, wantEOF)
		}
	}
}

// viaHandler answers from an http.Handler; like a real transport it fails
// a request whose context ended before the reply.
func viaHandler(h http.Handler) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return rec.Result(), nil
	}
}

// memClient is a Client over a fresh memTransport.
func memClient(answer func(*http.Request) (*http.Response, error)) (Client, *memTransport) {
	tr := &memTransport{answer: answer}
	return Client{URL: "http://backend", HTTP: &http.Client{Transport: tr}}, tr
}

// padded is a reply of exactly size bytes: doc, then spaces, never held in
// memory.
func padded(doc string, size int64) *http.Response {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(io.MultiReader(
		strings.NewReader(doc), io.LimitReader(spaces{}, size-int64(len(doc)))))}
}

type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestClient pins what every conversation with a backend now decides in
// one place: how a model name becomes a path, what a reply at the size
// bound means, how an error body is read, and that no reply body is left
// unread or open on any branch.
func TestClient(t *testing.T) {
	ctx := context.Background()
	jsonReply := func(code int, v any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { writeJSON(w, code, v) }
	}

	for _, name := range []string{"a#b", "a/b", "a%23b", "a b"} {
		t.Run("model name "+name, func(t *testing.T) {
			var paths, names []string
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/models/{name}", func(w http.ResponseWriter, r *http.Request) {
				paths = append(paths, r.Method+" "+r.URL.EscapedPath())
				names = append(names, r.PathValue("name"))
				writeJSON(w, http.StatusOK, AdminResponse{Model: r.PathValue("name")})
			})
			c, tr := memClient(viaHandler(mux))
			if status, err := c.Reload(ctx, name, []byte(`{}`)); err != nil || status != http.StatusOK {
				t.Fatalf("Reload: status %d err %v", status, err)
			}
			if status, err := c.Unregister(ctx, name); err != nil || status != http.StatusOK {
				t.Fatalf("Unregister: status %d err %v", status, err)
			}
			escaped := "/v1/models/" + url.PathEscape(name)
			if len(paths) != 2 || paths[0] != "PUT "+escaped || paths[1] != "DELETE "+escaped {
				t.Errorf("backend saw %q, want PUT and DELETE of %s", paths, escaped)
			}
			if len(names) != 2 || names[0] != name || names[1] != name {
				t.Errorf("backend decoded %q, want %q twice", names, name)
			}
			tr.checkBodies(t, true)
		})
	}

	t.Run("reply at the size bound", func(t *testing.T) {
		const doc = `{"status":"ok","models":3}`
		c, tr := memClient(func(*http.Request) (*http.Response, error) { return padded(doc, MaxRequestBody), nil })
		if h, err := c.Health(ctx); !errors.Is(err, errReplyTooLarge) {
			t.Fatalf("Health on a reply of exactly MaxRequestBody bytes = %+v, %v; want errReplyTooLarge", h, err)
		}
		tr.checkBodies(t, false)

		c, tr = memClient(func(*http.Request) (*http.Response, error) { return padded(doc, MaxRequestBody-1), nil })
		if h, err := c.Health(ctx); err != nil || h.Models != 3 {
			t.Fatalf("Health one byte under the bound = %+v, %v", h, err)
		}
		tr.checkBodies(t, true)
	})

	t.Run("error bodies", func(t *testing.T) {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/models", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
		})
		mux.HandleFunc("PUT /v1/models/taken", jsonReply(http.StatusConflict, ErrorResponse{Error: "name taken", Model: "taken"}))
		mux.HandleFunc("GET /healthz", jsonReply(http.StatusServiceUnavailable, Health{Status: "draining"}))
		c, tr := memClient(viaHandler(mux))

		var refused *StatusError
		status, err := c.Register(ctx, []byte(`{}`))
		if status != http.StatusBadGateway || !errors.As(err, &refused) || refused.Status != status || refused.Message != "" {
			t.Errorf("Register answered non-JSON 502: status %d err %v, want the status with an empty message", status, err)
		}
		status, err = c.Reload(ctx, "taken", []byte(`{}`))
		if status != http.StatusConflict || !errors.As(err, &refused) || refused.Message != "name taken" {
			t.Errorf("Reload answered 409: status %d err %v, want the ErrorResponse text", status, err)
		}
		if _, err = c.Health(ctx); !errors.As(err, &refused) || refused.Status != http.StatusServiceUnavailable {
			t.Errorf("Health of a draining backend: %v, want a StatusError carrying 503", err)
		}
		if err = c.GetJSON(ctx, "/v1/slo", nil); !errors.As(err, &refused) || refused.Status != http.StatusNotFound {
			t.Errorf("GetJSON of a route the backend lacks: %v, want a StatusError carrying 404", err)
		}
		tr.checkBodies(t, true)
	})

	t.Run("no reply", func(t *testing.T) {
		c, _ := memClient(func(*http.Request) (*http.Response, error) { return nil, errors.New("connection refused") })
		if status, err := c.Unregister(ctx, "m"); status != 0 || err == nil {
			t.Errorf("Unregister without a reply: status %d err %v, want 0 and the transport error", status, err)
		}
		if sc, err := c.Metrics(ctx); sc != nil || err == nil {
			t.Errorf("Metrics without a reply: %v, %v", sc, err)
		}
	})

	t.Run("decoded replies", func(t *testing.T) {
		var inferHeader http.Header
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/models", jsonReply(http.StatusOK, map[string][]ModelInfo{"models": {{Name: "m"}, {Name: "n"}}}))
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "radixserve_uptime_seconds 7\n")
		})
		mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, r *http.Request) {
			inferHeader = r.Header
			var req InferRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Model != "m" {
				t.Errorf("infer body: %+v, %v", req, err)
			}
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "saturated"})
		})
		c, tr := memClient(viaHandler(mux))

		if infos, err := c.Models(ctx); err != nil || len(infos) != 2 || infos[1].Name != "n" {
			t.Errorf("Models = %+v, %v", infos, err)
		}
		if sc, err := c.Metrics(ctx); err != nil || len(sc.Samples) != 1 || sc.Samples[0].Value != 7 {
			t.Errorf("Metrics = %+v, %v", sc, err)
		}
		// Infer hands back any status undecoded: the router relays it.
		resp, err := c.Infer(ctx, []byte(`{"model":"m"}`), "cafe", ClassBatch, 12.3456)
		if err != nil || resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("Infer: %v, %v", resp, err)
		}
		var e ErrorResponse
		if err := DecodeReply(resp, &e); err != nil || e.Error != "saturated" {
			t.Errorf("DecodeReply = %+v, %v", e, err)
		}
		for name, want := range map[string]string{
			"Content-Type": "application/json", obs.HeaderTraceID: "cafe", HeaderClass: ClassBatch, HeaderDeadlineMs: "12.346",
		} {
			if got := inferHeader.Get(name); got != want {
				t.Errorf("infer header %s = %q, want %q", name, got, want)
			}
		}
		if resp, err = c.Infer(ctx, []byte(`{"model":"m"}`), "", "", 0); err != nil {
			t.Fatal(err)
		}
		DecodeReply(resp, nil)
		if len(inferHeader) != 1 { // Content-Type
			t.Errorf("bare Infer sent %v, want no optional header", inferHeader)
		}
		tr.checkBodies(t, true)
	})
}

// TestClientInferTinyBudgetKeepsDeadline sends budgets too small to print
// at µs resolution. Each must reach the handler as a deadline, read the way
// handleInfer reads it: a budget that went out as "0.000" would parse as 0,
// replace the body's deadline_ms, and let the rows run unbounded.
func TestClientInferTinyBudgetKeepsDeadline(t *testing.T) {
	for _, ms := range []float64{0.0004, 1e-9, 0.0005, 0.0015} {
		var got string
		c, _ := memClient(viaHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got = r.Header.Get(HeaderDeadlineMs)
		})))
		resp, err := c.Infer(context.Background(), []byte(`{"model":"m"}`), "", "", ms)
		if err != nil {
			t.Fatal(err)
		}
		DecodeReply(resp, nil)
		v, err := strconv.ParseFloat(got, 64)
		if err != nil || DeadlineFromMs(v).IsZero() || v < ms {
			t.Errorf("a %g ms budget reached the handler as %q: no deadline, or a shorter one", ms, got)
		}
	}
}

// TestCheckHealth exercises the probe the cluster router ejects on.
func TestCheckHealth(t *testing.T) {
	s, _, _ := newTestServer(t, Policy{}, 1)
	c, tr := memClient(viaHandler(s.Handler()))
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Models != 1 || h.UptimeSeconds < 0 {
		t.Fatalf("health = %+v", h)
	}
	tr.checkBodies(t, true)
	// A backend that answers non-200 is unhealthy.
	c, _ = memClient(viaHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})))
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("unhealthy backend probed healthy")
	}
	// So is one that answers 200 in another shape, or says anything but "ok".
	for _, body := range []string{"<html>", `{"status":"starting"}`} {
		c, _ = memClient(viaHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) })))
		if _, err := c.Health(context.Background()); err == nil {
			t.Fatalf("backend answering 200 %s probed healthy", body)
		}
	}
	// A dead backend (connection refused) is unhealthy.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := (Client{URL: dead.URL, HTTP: http.DefaultClient}).Health(context.Background()); err == nil {
		t.Fatal("dead backend probed healthy")
	}
	// The probe honors ctx cancellation (a hung backend must not block it).
	c, _ = memClient(viaHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Health(ctx); err == nil {
		t.Fatal("hung backend probed healthy")
	}
}

// TestClientFollowsNoRedirect: a backend answering 307 gets no second
// request. The redirect reaches the caller as it came, from Infer (whose
// reply the router relays) and from the admin verbs alike, and the
// Location target never sees the body reposted.
func TestClientFollowsNoRedirect(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	c, _ := memClient(viaHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		http.Redirect(w, r, "/elsewhere", http.StatusTemporaryRedirect)
	})))
	resp, err := c.Infer(context.Background(), []byte(`{"model":"m","inputs":[[1]]}`), "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get("Location") != "/elsewhere" {
		t.Errorf("Infer: status %d, Location %q; want the backend's 307 to /elsewhere", resp.StatusCode, resp.Header.Get("Location"))
	}
	DecodeReply(resp, nil)
	if status, err := c.Register(context.Background(), []byte(`{"name":"m"}`)); status != http.StatusTemporaryRedirect || err != nil {
		t.Errorf("Register: status %d, err %v; want the backend's 307", status, err)
	}
	if want := []string{"/v1/infer", "/v1/models"}; !slices.Equal(paths, want) {
		t.Fatalf("the backend saw %v, want only %v", paths, want)
	}
}

// TestClientTimeoutBoundsRequest: a non-zero HTTP.Timeout still ends a
// request to a backend that never answers.
func TestClientTimeoutBoundsRequest(t *testing.T) {
	c, _ := memClient(viaHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})))
	c.HTTP.Timeout = 20 * time.Millisecond
	if _, err := c.Infer(context.Background(), []byte(`{"model":"m"}`), "", "", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Infer on a hung backend: %v, want the timeout", err)
	}
	if _, err := c.Models(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Models on a hung backend: %v, want the timeout", err)
	}
}
