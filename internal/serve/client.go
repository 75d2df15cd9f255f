package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"github.com/radix-net/radixnet/internal/obs"
)

// Client speaks the radixserve wire API to one instance. A radixrouter
// exposes the same API, so the same client drives either tier: the cluster
// router holds one per backend and the selftest harness one per target. It
// is the only code outside the benchmark that builds a request for that
// API, so path escaping, the reply-size bound, drain-and-close, the reading
// of error bodies and the refusal to follow redirects are each decided
// here, once.
type Client struct {
	URL string // scheme://host:port, no trailing slash
	// HTTP supplies the Transport (nil: http.DefaultTransport) and, when
	// non-zero, a Timeout bounding each request until its reply body is
	// closed. Its redirect policy and cookie jar are not used: every
	// request is one round trip, and a 3xx reaches the caller as it came.
	HTTP *http.Client
}

// StatusError is a reply with status ≥ 400. Message is the reply's
// ErrorResponse text, empty when the body was not one.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string { return fmt.Sprintf("status %d %q", e.Status, e.Message) }

// errReplyTooLarge is what reading a reply of MaxRequestBody bytes or more
// yields: a value cut off at the bound must not pass for the whole one.
var errReplyTooLarge = errors.New("serve: reply reaches the size bound")

// bounded is the one reader every reply is decoded through.
type bounded struct {
	r io.Reader
	n int64 // bytes left before the bound
}

func (b *bounded) Read(p []byte) (int, error) {
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	if b.n -= int64(n); b.n <= 0 {
		err = errReplyTooLarge
	}
	return n, err
}

// DecodeReply decodes a reply's JSON body into out (nil: nothing is
// decoded), then reads the body to EOF and closes it so the keep-alive
// connection is reusable.
func DecodeReply(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body := &bounded{r: resp.Body, n: MaxRequestBody}
	var err error
	if out != nil {
		err = json.NewDecoder(body).Decode(out)
	}
	if _, drainErr := io.Copy(io.Discard, body); err == nil {
		err = drainErr
	}
	return err
}

// request builds one request; a non-nil body travels as JSON.
func (c Client) request(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.URL+path, rd)
	if err == nil && body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// do sends req as one round trip on the client's transport. Unlike
// http.Client.Do it follows no redirect — a backend's 307 must not make a
// proxy hop repost the body to wherever it points — and copies no header
// map for one.
func (c Client) do(req *http.Request) (*http.Response, error) {
	rt := c.HTTP.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	if c.HTTP.Timeout <= 0 {
		return rt.RoundTrip(req)
	}
	ctx, cancel := context.WithTimeout(req.Context(), c.HTTP.Timeout)
	resp, err := rt.RoundTrip(req.WithContext(ctx))
	if err != nil {
		cancel()
		return nil, err
	}
	resp.Body = cancelOnClose{resp.Body, cancel}
	return resp, nil
}

// cancelOnClose ends a reply's timeout context when its body is closed, as
// http.Client does for its Timeout.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// call issues one request and returns a reply below 400 unread, with its
// status (0: no reply); one at or above 400 is consumed into a
// *StatusError.
func (c Client) call(ctx context.Context, method, path string, body []byte) (*http.Response, int, error) {
	req, err := c.request(ctx, method, path, body)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode < 400 {
		return resp, resp.StatusCode, nil
	}
	var e ErrorResponse
	_ = DecodeReply(resp, &e) // a body that is no ErrorResponse leaves the message empty
	return nil, resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, &StatusError{resp.StatusCode, e.Error})
}

// Infer posts a pre-marshalled /v1/infer body and returns the reply
// undecoded, whatever its status — the router relays it as it came — so
// the caller owns the body (DecodeReply consumes it). The optional headers
// carry what the router forwards beside the body: the trace ID, the QoS
// class, and the deadline budget remaining at this attempt in milliseconds
// (≤ 0: none).
func (c Client) Infer(ctx context.Context, body []byte, traceID, class string, remainingMs float64) (*http.Response, error) {
	req, err := c.request(ctx, http.MethodPost, "/v1/infer", body)
	if err != nil {
		return nil, err
	}
	if traceID != "" {
		req.Header.Set(obs.HeaderTraceID, traceID)
	}
	if class != "" {
		req.Header.Set(HeaderClass, class)
	}
	if remainingMs > 0 {
		req.Header.Set(HeaderDeadlineMs, formatBudget(remainingMs))
	}
	return c.do(req)
}

// formatBudget renders a positive deadline budget in milliseconds at µs
// resolution, rounded up: a budget under half a µs must not go out as
// "0.000", which the handler would read as no deadline at all.
func formatBudget(ms float64) string {
	return strconv.FormatFloat(math.Ceil(ms*1e3)/1e3, 'f', 3, 64)
}

// GetJSON decodes the reply of GET path into out. A nil out makes it a
// plain status probe: the reply is drained undecoded, whatever its content
// type, and only has to be below 400.
func (c Client) GetJSON(ctx context.Context, path string, out any) error {
	resp, _, err := c.call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := DecodeReply(resp, out); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// Health probes GET /healthz. ctx bounds the probe (attach a timeout: a
// hung backend must fail it, not block it). The instance is healthy only
// when it says so in the expected shape: 503 "draining" is a *StatusError,
// any other status text an error too.
func (c Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.GetJSON(ctx, "/healthz", &h)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("GET /healthz: backend status %q", h.Status)
	}
	return h, err
}

// Models lists GET /v1/models.
func (c Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var body struct {
		Models []ModelInfo `json:"models"`
	}
	err := c.GetJSON(ctx, "/v1/models", &body)
	return body.Models, err
}

// Metrics scrapes and parses GET /metrics.
func (c Client) Metrics(ctx context.Context) (*obs.Scrape, error) {
	resp, _, err := c.call(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(&bounded{r: resp.Body, n: MaxRequestBody})
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return obs.ParseScrape(string(text)), nil
}

// admin issues one control-plane verb and returns the reply's status (0:
// no reply); the success body says nothing the status does not.
func (c Client) admin(ctx context.Context, method, path string, body []byte) (int, error) {
	resp, status, err := c.call(ctx, method, path, body)
	if err == nil {
		err = DecodeReply(resp, nil)
	}
	return status, err
}

// modelPath is the one place a model name — client-chosen, so it may hold
// "#", "/", " " or "%" — becomes a path segment.
func modelPath(name string) string { return "/v1/models/" + url.PathEscape(name) }

// Register posts a marshalled RegisterRequest to POST /v1/models. Like
// Reload and Unregister it returns the reply's status and, for a status
// ≥ 400, a *StatusError.
func (c Client) Register(ctx context.Context, body []byte) (int, error) {
	return c.admin(ctx, http.MethodPost, "/v1/models", body)
}

// Reload hot-reloads a model: PUT /v1/models/{name} with a marshalled
// RegisterRequest.
func (c Client) Reload(ctx context.Context, name string, body []byte) (int, error) {
	return c.admin(ctx, http.MethodPut, modelPath(name), body)
}

// Unregister drains and removes a model: DELETE /v1/models/{name}.
func (c Client) Unregister(ctx context.Context, name string) (int, error) {
	return c.admin(ctx, http.MethodDelete, modelPath(name), nil)
}
