package obs

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// HeaderSpans carries a backend's span breakdown on the HTTP response
// wire in the compact form produced by EncodeSpans. The router decodes
// it and grafts the backend spans into its own trace under the winning
// attempt span, so one /debug/traces entry tells the whole story.
const HeaderSpans = "X-Radix-Spans"

// Wire-format bounds. A span breakdown is a handful of pipeline stages,
// so anything past these limits is malformed or hostile and is rejected
// rather than buffered.
const (
	// MaxWireSpans bounds how many spans EncodeSpans emits and
	// DecodeSpans accepts.
	MaxWireSpans = 64
	// maxWireBytes bounds the encoded header length DecodeSpans parses.
	maxWireBytes = 8 << 10
)

// EncodeSpans renders spans as a single header-safe string:
// records separated by ';', each record "name|start_ms|duration_ms"
// with the name percent-encoded (so names containing '|', ';' or
// non-ASCII survive the round trip). At most MaxWireSpans spans are
// encoded; the rest are dropped (they would be sub-µs bookkeeping
// stages, never the story).
func EncodeSpans(spans []Span) string {
	return string(AppendSpans(nil, spans))
}

// AppendSpans appends EncodeSpans(spans) to dst, so a caller that keeps
// dst builds the header with no garbage but the final string.
func AppendSpans(dst []byte, spans []Span) []byte {
	if len(spans) > MaxWireSpans {
		spans = spans[:MaxWireSpans]
	}
	for i, s := range spans {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, url.QueryEscape(s.Name)...) // no copy for a name that needs no escape
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, s.StartMs, 'f', 3, 64)
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, s.DurMs, 'f', 3, 64)
	}
	return dst
}

// DecodeSpans parses EncodeSpans output. It never panics on malformed
// input: any record that does not parse, any non-finite or negative
// timing, an over-long header, or more than MaxWireSpans records
// yields an error and a nil slice.
func DecodeSpans(s string) ([]Span, error) {
	if s == "" {
		return nil, nil
	}
	if len(s) > maxWireBytes {
		return nil, fmt.Errorf("obs: span header too long (%d bytes)", len(s))
	}
	records := strings.Split(s, ";")
	if len(records) > MaxWireSpans {
		return nil, fmt.Errorf("obs: too many spans (%d)", len(records))
	}
	out := make([]Span, 0, len(records))
	for _, rec := range records {
		sp, err := parseSpan(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

// RebaseSpans returns a copy of spans with every StartMs shifted by
// baseMs — used by the router to graft backend-relative span offsets
// under the attempt span that produced them, so all offsets in the
// stitched trace share the router trace's time base.
func RebaseSpans(spans []Span, baseMs float64) []Span {
	if len(spans) == 0 {
		return nil
	}
	out := make([]Span, len(spans))
	for i, s := range spans {
		s.StartMs += baseMs
		out[i] = s
	}
	return out
}

// AppendRebasedSpans decodes the EncodeSpans header s and appends its spans
// to dst, every StartMs shifted by baseMs: what the router does with a
// backend's spans, writing them straight into the trace it retains. It
// accepts exactly what DecodeSpans accepts and yields, bit for bit,
// RebaseSpans(DecodeSpans(s), baseMs), without DecodeSpans' two splits and
// two slices; names are views of s unless they carry escapes. On an error
// dst comes back at its old length.
func AppendRebasedSpans(dst []Span, s string, baseMs float64) ([]Span, error) {
	if s == "" {
		return dst, nil
	}
	if len(s) > maxWireBytes {
		return dst, fmt.Errorf("obs: span header too long (%d bytes)", len(s))
	}
	if n := strings.Count(s, ";") + 1; n > MaxWireSpans {
		return dst, fmt.Errorf("obs: too many spans (%d)", n)
	}
	n := len(dst)
	for rest, more := s, true; more; {
		var rec string
		rec, rest, more = strings.Cut(rest, ";")
		sp, err := parseSpan(rec)
		if err != nil {
			return dst[:n], err
		}
		sp.StartMs += baseMs
		dst = append(dst, sp)
	}
	return dst, nil
}

// parseSpan parses one "name|start_ms|duration_ms" record: any timing
// that does not parse, is negative or not finite, or passes 1e12 ms is
// refused, as is an empty or badly escaped name.
func parseSpan(rec string) (Span, error) {
	rawName, times, ok1 := strings.Cut(rec, "|")
	rawStart, rawDur, ok2 := strings.Cut(times, "|")
	if !ok1 || !ok2 || strings.IndexByte(rawDur, '|') >= 0 {
		return Span{}, fmt.Errorf("obs: malformed span record %q", rec)
	}
	name, err := url.QueryUnescape(rawName)
	if err != nil || name == "" {
		return Span{}, fmt.Errorf("obs: malformed span name %q", rawName)
	}
	start, err := strconv.ParseFloat(rawStart, 64)
	if err != nil || start < 0 || start != start || start > 1e12 {
		return Span{}, fmt.Errorf("obs: malformed span start %q", rawStart)
	}
	dur, err := strconv.ParseFloat(rawDur, 64)
	if err != nil || dur < 0 || dur != dur || dur > 1e12 {
		return Span{}, fmt.Errorf("obs: malformed span duration %q", rawDur)
	}
	return Span{Name: name, StartMs: start, DurMs: dur}, nil
}
