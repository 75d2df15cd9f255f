package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// exchange is the storage one POST /v1/infer request lives in: the body as
// read (and then the reply written over it), the request decoded from it,
// and the output rows the batcher writes in place. Exchanges are pooled, so
// a steady stream of requests reads and answers in memory the previous
// requests already grew: decode parses into req.Inputs and each of its rows
// within their capacity, instead of growing a slice per row per request.
type exchange struct {
	body  []byte
	spans []byte // the reply's span header, as built
	req   InferRequest
	out   []float64 // every output row, back to back

	// The first rows row slots of req.Inputs' storage, and the first
	// written[i] values of slot i's row, hold what this request's body
	// wrote; storage past them is a previous request's and reads as fresh
	// (see decoder.inputs).
	rows    int
	written []int
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

// decode decodes x.body into x.req: the request json.Unmarshal decodes the
// body to in a fresh InferRequest, bit for bit on every float, and an error
// exactly when json.Unmarshal returns one. Inputs keeps its storage for the
// rows to decode into.
func (x *exchange) decode() error {
	x.req = InferRequest{Inputs: x.req.Inputs[:0]}
	x.rows = 0
	d := decoder{b: x.body, x: x}
	return d.request(&x.req)
}

// PeekInferRequest reads the model, class and deadline_ms of a POST
// /v1/infer body as json.Unmarshal reads them, with the server's own
// decoder. Every other value is checked for syntax and skipped, the rows
// without parsing a number, so Inputs and Categories stay zero. The cluster
// router routes on what it returns.
func PeekInferRequest(body []byte) (InferRequest, error) {
	var req InferRequest
	d := decoder{b: body}
	err := d.request(&req)
	return req, err
}

// output returns room for n rows of w outputs each.
func (x *exchange) output(n, w int) []float64 {
	if cap(x.out) < n*w {
		x.out = make([]float64, n*w)
	}
	x.out = x.out[:n*w]
	return x.out
}

// maxDepth is how many arrays and objects encoding/json lets a value hold
// open at once; a deeper body is an error there, so it is one here.
const maxDepth = 10000

// decoder scans one /v1/infer body in a single pass. With x set it decodes
// every field of the request, the rows into x's pooled storage; without x
// it reads model, class and deadline_ms only (PeekInferRequest).
type decoder struct {
	b []byte
	i int
	x *exchange
}

// The request fields in InferRequest's order, as their JSON keys.
const (
	fieldModel = iota
	fieldInputs
	fieldClass
	fieldDeadline
	fieldCategories
)

var fieldKeys = [...]string{"model", "inputs", "class", "deadline_ms", "categories"}

// request reads the whole body: a JSON object (or null, which leaves req
// as it is) and nothing after it but space.
func (d *decoder) request(req *InferRequest) error {
	d.space()
	switch {
	case d.literal("null"):
	case d.next('{'):
		if err := d.object(req); err != nil {
			return err
		}
	default:
		return d.fail("want a JSON object")
	}
	d.space()
	if d.i != len(d.b) {
		return d.fail("data after the request object")
	}
	return nil
}

// object reads the members of the request object, its '{' already read. A
// key matches a field as encoding/json matches it, exactly or else under
// Unicode case folding; a key that names no field has its value checked and
// skipped, and a repeated key decodes again over what the first one set.
func (d *decoder) object(req *InferRequest) error {
	d.space()
	if d.next('}') {
		return nil
	}
	for {
		field, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if !d.next(':') {
			return d.fail("want ':' after an object key")
		}
		d.space()
		switch {
		case field == fieldModel:
			err = d.str(&req.Model)
		case field == fieldClass:
			err = d.str(&req.Class)
		case field == fieldDeadline:
			err = d.float(&req.DeadlineMs)
		case field == fieldInputs && d.x != nil:
			err = d.inputs()
		case field == fieldCategories && d.x != nil:
			err = d.boolean(&req.Categories)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		d.space()
		if d.next('}') {
			return nil
		}
		if !d.next(',') {
			return d.fail("want ',' or '}' after an object member")
		}
		d.space()
	}
}

// key reads an object key and returns the field it names, or -1.
func (d *decoder) key() (int, error) {
	start := d.i
	if d.peek() != '"' {
		return -1, d.fail("want an object key")
	}
	plain, err := d.skipString()
	if err != nil {
		return -1, err
	}
	if !plain {
		key, err := unquote(d.b[start:d.i])
		for f, k := range fieldKeys {
			if err == nil && strings.EqualFold(key, k) {
				return f, nil
			}
		}
		return -1, err
	}
	// Only an ASCII key of a field key's length can fold to it.
	key := d.b[start+1 : d.i-1]
	for f, k := range fieldKeys {
		if len(key) == len(k) && strings.EqualFold(string(key), k) {
			return f, nil
		}
	}
	return -1, nil
}

// unquote decodes a JSON string token that holds an escape or a byte past
// ASCII, as encoding/json decodes it (each byte that is not UTF-8 reads as
// U+FFFD).
func unquote(tok []byte) (string, error) {
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// str reads a JSON string into *s; null leaves *s as it is.
func (d *decoder) str(s *string) error {
	if d.literal("null") {
		return nil
	}
	start := d.i
	if d.peek() != '"' {
		return d.fail("want a string")
	}
	plain, err := d.skipString()
	if err != nil {
		return err
	}
	if !plain {
		v, err := unquote(d.b[start:d.i])
		*s = v
		return err
	}
	*s = string(d.b[start+1 : d.i-1])
	return nil
}

// float reads a JSON number into *f; null leaves *f as it is.
func (d *decoder) float(f *float64) error {
	if d.literal("null") {
		return nil
	}
	v, err := d.number()
	if err == nil {
		*f = v
	}
	return err
}

// boolean reads true or false into *v; null leaves *v as it is.
func (d *decoder) boolean(v *bool) error {
	switch {
	case d.literal("true"):
		*v = true
	case d.literal("false"):
		*v = false
	case !d.literal("null"):
		return d.fail("want true or false")
	}
	return nil
}

// inputs reads the rows into the exchange's pooled storage as
// json.Unmarshal reads them into a fresh request: a null value leaves the
// value where it is, so a value this body has not yet written starts at
// zero, never at a previous request's value, and a repeated "inputs" key
// decodes over the rows the earlier one wrote.
//
//radix:hotpath allow=alloc
func (d *decoder) inputs() error {
	x := d.x
	if d.literal("null") {
		x.req.Inputs, x.rows = x.req.Inputs[:0], 0
		return nil
	}
	if !d.next('[') {
		return d.fail("want an array of rows")
	}
	rows := x.req.Inputs
	n := 0
	d.space()
	if !d.next(']') {
		for {
			if n == len(rows) {
				rows = slices.Grow(rows, 1)[:n+1]
				if n == x.rows {
					rows[n] = rows[n][:0]
					x.written = append(x.written[:n], 0)
					x.rows++
				}
			}
			if err := d.row(&rows[n], &x.written[n]); err != nil {
				return err
			}
			n++
			d.space()
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return d.fail("want ',' or ']' after a row")
			}
			d.space()
		}
	}
	if n == 0 {
		x.rows = 0
	}
	x.req.Inputs = rows[:n]
	return nil
}

// row reads one row into *row, whose first *written values this body
// wrote (see inputs).
//
//radix:hotpath allow=alloc
func (d *decoder) row(row *[]float64, written *int) error {
	if d.literal("null") {
		*row, *written = (*row)[:0], 0
		return nil
	}
	if !d.next('[') {
		return d.fail("want a row array")
	}
	r, w := *row, *written
	j := 0
	d.space()
	if !d.next(']') {
		for {
			if j == len(r) {
				r = slices.Grow(r, 1)[:j+1]
				if j == w {
					r[j] = 0
					w++
				}
			}
			if !d.literal("null") {
				v, err := d.number()
				if err != nil {
					return err
				}
				r[j] = v
			}
			j++
			d.space()
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return d.fail("want ',' or ']' after a row value")
			}
			d.space()
		}
	}
	if j == 0 {
		w = 0
	}
	*row, *written = r[:j], w
	return nil
}

// number reads a JSON number as the float64 strconv.ParseFloat gives it,
// and fails where ParseFloat does (out of range), as encoding/json fails.
// An integer of at most 15 digits, exact in a float64, is converted
// directly.
//
//radix:hotpath
func (d *decoder) number() (float64, error) {
	start := d.i
	mant, short, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if short {
		f := float64(mant)
		if d.b[start] == '-' {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		return 0, errNumberRange
	}
	return f, nil
}

var errNumberRange = errors.New("a number out of float64 range")

// scanNumber moves past a JSON number. short reports an integer of at
// most 15 digits, mant its magnitude.
//
//radix:hotpath
func (d *decoder) scanNumber() (mant uint64, short bool, err error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
		short = true
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		n := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			n++
		}
		short = n <= 15
	default:
		d.i = i
		return 0, false, d.fail("want a number")
	}
	if i < len(b) && b[i] == '.' {
		short = false
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false, d.failAt(j, "want a digit after '.'")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		short = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false, d.failAt(j, "want a digit in the exponent")
		}
		i = j
	}
	d.i = i
	return mant, short, nil
}

// digits returns the index past the run of digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipString moves past the JSON string at d.i. plain reports that it
// holds no escape and no byte past ASCII, so that its bytes are its value.
func (d *decoder) skipString() (plain bool, err error) {
	plain = true
	b := d.b
	for i := d.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return plain, nil
		case c < 0x20:
			return false, d.failAt(i, "control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			i++
			if i == len(b) {
				return false, d.failAt(i, "")
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(b) || !isHex(b[i]) {
						return false, d.failAt(i, "want four hex digits after \\u")
					}
				}
			default:
				return false, d.failAt(i, "invalid escape")
			}
		}
	}
	return false, d.failAt(len(b), "")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skip moves past one JSON value of any kind, checking its syntax;
// depth is how many arrays and objects are open around it.
func (d *decoder) skip(depth int) error {
	c := d.peek()
	switch {
	case c == '"':
		_, err := d.skipString()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.scanNumber()
		return err
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return nil
	case c != '[' && c != '{':
		return d.fail("want a value")
	case depth == maxDepth:
		return d.fail("nested too deeply")
	}
	end := byte(']')
	if c == '{' {
		end = '}'
	}
	d.i++
	d.space()
	if d.next(end) {
		return nil
	}
	for {
		if c == '{' {
			if d.peek() != '"' {
				return d.fail("want an object key")
			}
			if _, err := d.skipString(); err != nil {
				return err
			}
			d.space()
			if !d.next(':') {
				return d.fail("want ':' after an object key")
			}
			d.space()
		}
		if err := d.skip(depth + 1); err != nil {
			return err
		}
		d.space()
		if d.next(end) {
			return nil
		}
		if !d.next(',') {
			return d.fail("want ',' or a closing bracket")
		}
		d.space()
	}
}

// space moves past JSON whitespace.
//
//radix:hotpath
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next moves past c if it comes next.
//
//radix:hotpath
func (d *decoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal moves past lit if it comes next.
//
//radix:hotpath
func (d *decoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// peek returns the next byte, 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) fail(what string) error { return d.failAt(d.i, what) }

func (d *decoder) failAt(i int, what string) error {
	if i >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("%s at offset %d", what, i)
}

// errNotFinite refuses a reply JSON cannot carry. No served engine writes
// one: every layer caps its activations at 32.
var errNotFinite = errors.New("an output is not a finite number")

// appendResponse appends to b the bytes json.NewEncoder(w).Encode(resp)
// writes, newline included, and fails where Encode fails: on a float that
// is NaN or infinite.
//
//radix:hotpath allow=alloc
func appendResponse(b []byte, resp *InferResponse) ([]byte, error) {
	ok := true
	b = append(b, `{"model":`...)
	b = appendString(b, resp.Model)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(resp.Rows), 10)
	b = append(b, `,"outputs":`...)
	if resp.Outputs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range resp.Outputs {
			if i > 0 {
				b = append(b, ',')
			}
			if row == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b, ok = appendFloat(b, v, ok)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	if resp.Class != "" {
		b = append(b, `,"class":`...)
		b = appendString(b, resp.Class)
	}
	if resp.QueueWaitMs != 0 {
		b = append(b, `,"queue_wait_ms":`...)
		b, ok = appendFloat(b, resp.QueueWaitMs, ok)
	}
	if resp.ExecuteMs != 0 {
		b = append(b, `,"execute_ms":`...)
		b, ok = appendFloat(b, resp.ExecuteMs, ok)
	}
	if resp.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, resp.TraceID)
	}
	if len(resp.Spans) > 0 {
		b = append(b, `,"spans":[`...)
		for i, sp := range resp.Spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = appendString(b, sp.Name)
			b = append(b, `,"start_ms":`...)
			b, ok = appendFloat(b, sp.StartMs, ok)
			b = append(b, `,"duration_ms":`...)
			b, ok = appendFloat(b, sp.DurMs, ok)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(resp.Active) > 0 {
		b = append(b, `,"active":[`...)
		for i, v := range resp.Active {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendBool(b, v)
		}
		b = append(b, ']')
	}
	if len(resp.Argmax) > 0 {
		b = append(b, `,"argmax":[`...)
		for i, v := range resp.Argmax {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if !ok {
		return b, errNotFinite
	}
	return append(b, "}\n"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in 'f' form unless |f| is below 1e-6 or
// at least 1e21, with e-0N written e-N. An integral value below 2^53 in
// magnitude, -0 aside, is written by strconv.AppendInt, whose bytes are the
// same. ok comes back false for NaN or ±Inf, and as it went in otherwise.
//
//radix:hotpath allow=alloc
func appendFloat(b []byte, f float64, ok bool) ([]byte, bool) {
	if n := int64(f); float64(n) == f && -1<<53 < n && n < 1<<53 && (n != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, n, 10), ok
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, ok
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it by default: the
// HTML characters <, > and & escaped, U+2028 and U+2029 escaped, and each
// byte that is not UTF-8 written as U+FFFD.
//
//radix:hotpath allow=alloc
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				b = append(b, s[start:i]...)
				if n == 1 {
					b = append(b, `\ufffd`...)
				} else {
					b = append(b, `\u202`...)
					b = append(b, hexDigits[r&0xf])
				}
				start = i + n
			}
			i += n
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
