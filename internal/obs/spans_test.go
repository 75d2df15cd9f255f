package obs

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestSpanCodecRoundTrip(t *testing.T) {
	in := []Span{
		{Name: "admission", StartMs: 0, DurMs: 0.042},
		{Name: "attempt:127.0.0.1:8080", StartMs: 1.5, DurMs: 12.25},
		{Name: "name with spaces|and;delims", StartMs: 3.125, DurMs: 0},
	}
	enc := EncodeSpans(in)
	if strings.ContainsAny(enc, " \n") {
		t.Fatalf("encoded form not header-safe: %q", enc)
	}
	out, err := DecodeSpans(enc)
	if err != nil {
		t.Fatalf("DecodeSpans(%q): %v", enc, err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Name != in[i].Name {
			t.Errorf("span %d name %q, want %q", i, out[i].Name, in[i].Name)
		}
		// Offsets are rendered at µs resolution.
		if math.Abs(out[i].StartMs-in[i].StartMs) > 1e-3 || math.Abs(out[i].DurMs-in[i].DurMs) > 1e-3 {
			t.Errorf("span %d timing (%g, %g), want (%g, %g)",
				i, out[i].StartMs, out[i].DurMs, in[i].StartMs, in[i].DurMs)
		}
	}
}

func TestEncodeSpansEmpty(t *testing.T) {
	if enc := EncodeSpans(nil); enc != "" {
		t.Fatalf("EncodeSpans(nil) = %q, want empty", enc)
	}
	out, err := DecodeSpans("")
	if err != nil || out != nil {
		t.Fatalf("DecodeSpans(\"\") = %v, %v; want nil, nil", out, err)
	}
}

func TestEncodeSpansCapsCount(t *testing.T) {
	many := make([]Span, MaxWireSpans+10)
	for i := range many {
		many[i] = Span{Name: "s", StartMs: float64(i), DurMs: 1}
	}
	out, err := DecodeSpans(EncodeSpans(many))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != MaxWireSpans {
		t.Fatalf("encoded %d spans survived, want cap %d", len(out), MaxWireSpans)
	}
}

func TestDecodeSpansMalformed(t *testing.T) {
	cases := []struct{ name, in string }{
		{"missing fields", "queue|1.0"},
		{"extra fields", "queue|1.0|2.0|3.0"},
		{"empty name", "|1.0|2.0"},
		{"bad escape", "%zz|1.0|2.0"},
		{"negative start", "queue|-1.0|2.0"},
		{"negative duration", "queue|1.0|-2.0"},
		{"NaN start", "queue|NaN|2.0"},
		{"infinite duration", "queue|1.0|+Inf"},
		{"absurd start", "queue|1e13|2.0"},
		{"non-numeric", "queue|soon|2.0"},
		{"too many records", strings.Repeat("s|1|1;", MaxWireSpans+1) + "s|1|1"},
		{"oversize header", strings.Repeat("x", maxWireBytes+1)},
	}
	for _, tc := range cases {
		if out, err := DecodeSpans(tc.in); err == nil {
			t.Errorf("%s: DecodeSpans(%.40q...) = %v, want error", tc.name, tc.in, out)
		}
	}
}

func TestRebaseSpans(t *testing.T) {
	in := []Span{{Name: "queue", StartMs: 0.5, DurMs: 1}, {Name: "execute", StartMs: 2, DurMs: 3}}
	out := RebaseSpans(in, 10)
	if in[0].StartMs != 0.5 || in[1].StartMs != 2 {
		t.Fatalf("RebaseSpans mutated its input: %+v", in)
	}
	if out[0].StartMs != 10.5 || out[1].StartMs != 12 {
		t.Fatalf("rebased starts (%g, %g), want (10.5, 12)", out[0].StartMs, out[1].StartMs)
	}
	if out[0].DurMs != 1 || out[1].DurMs != 3 {
		t.Fatalf("rebase changed durations: %+v", out)
	}
	if RebaseSpans(nil, 10) != nil {
		t.Fatal("RebaseSpans(nil) != nil")
	}
}

// FuzzDecodeSpans feeds hostile headers to both decoders. DecodeSpans must
// never panic or accept an invalid span, and AppendRebasedSpans — the
// router's in-place stitch — must refuse exactly what DecodeSpans refuses
// and otherwise append, after the spans already in its slice, spans bit
// for bit equal to RebaseSpans(DecodeSpans(s), base).
func FuzzDecodeSpans(f *testing.F) {
	f.Add("queue|0.000|1.500;execute|1.500|3.250", 2.5)
	f.Add("a%7Cb|1|2", 0.0)
	f.Add(";;;", 1.0)
	f.Add("x|1e308|1e308", 1e-3)
	f.Fuzz(func(t *testing.T, s string, base float64) {
		spans, err := DecodeSpans(s) // must never panic
		prefix := []Span{{Name: "route", StartMs: 0, DurMs: 0.5}}
		got, gotErr := AppendRebasedSpans(slices.Clip(prefix), s, base)
		if (err == nil) != (gotErr == nil) {
			t.Fatalf("%q: DecodeSpans error %v, AppendRebasedSpans error %v", s, err, gotErr)
		}
		if len(got) < 1 || got[0] != prefix[0] {
			t.Fatalf("%q: the spans already in the slice changed: %+v", s, got)
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("%q: refused, but the slice grew to %d spans", s, len(got))
			}
			return
		}
		for _, sp := range spans {
			if sp.Name == "" || sp.StartMs < 0 || sp.DurMs < 0 {
				t.Fatalf("accepted invalid span %+v from %q", sp, s)
			}
		}
		want := RebaseSpans(spans, base)
		if len(got)-1 != len(want) {
			t.Fatalf("%q: stitched %d spans, want %d", s, len(got)-1, len(want))
		}
		for i, w := range want {
			g := got[i+1]
			if g.Name != w.Name || math.Float64bits(g.StartMs) != math.Float64bits(w.StartMs) ||
				math.Float64bits(g.DurMs) != math.Float64bits(w.DurMs) {
				t.Fatalf("%q: span %d stitched as %+v, want %+v", s, i, g, w)
			}
		}
	})
}

// TestAppendRebasedSpansAllocs pins the stitch's cost: nothing for a header
// whose names carry no escapes, once the slice has room.
func TestAppendRebasedSpansAllocs(t *testing.T) {
	const enc = "admission|0.000|0.012;queue|0.012|0.004;assemble|0.016|1.071;lease|1.087|0.001;execute|1.088|0.015;deliver|1.103|0.002"
	dst := make([]Span, 0, 8)
	if n := testing.AllocsPerRun(20, func() {
		out, err := AppendRebasedSpans(dst[:1], enc, 0.25)
		if err != nil || len(out) != 7 {
			t.Fatalf("%d spans, %v", len(out), err)
		}
	}); n != 0 {
		t.Fatalf("%.0f allocations per stitch, want 0", n)
	}
}

// TestAppendSpansReusesBuffer pins the header encoder's cost: nothing into
// a buffer that already has room, and the bytes EncodeSpans returns.
func TestAppendSpansReusesBuffer(t *testing.T) {
	spans := []Span{{Name: "admission", DurMs: 0.012}, {Name: "queue", StartMs: 0.012, DurMs: 1.5}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(20, func() {
		buf = AppendSpans(buf[:0], spans)
	}); n != 0 {
		t.Fatalf("%.0f allocations per encode, want 0", n)
	}
	if string(buf) != EncodeSpans(spans) || string(buf) != "admission|0.000|0.012;queue|0.012|1.500" {
		t.Fatalf("AppendSpans wrote %q, EncodeSpans %q", buf, EncodeSpans(spans))
	}
}
