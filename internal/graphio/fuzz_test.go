// Fuzz round-trip properties for graphio's two formats: the configuration
// JSON that every register and reload body of the serving tier carries, and
// the TSV edge list the facade writes. Any input a reader accepts must
// survive a write→read cycle unchanged. Run as unit tests over the seed
// corpus by `go test`, or open-endedly with `go test -fuzz FuzzX`.
package graphio

import (
	"bytes"
	"strings"
	"testing"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/radix"
)

func FuzzConfigJSONRoundTrip(f *testing.F) {
	for _, seed := range []string{
		`{"systems":[[2,2,2]]}`,
		`{"systems":[[3,3,4],[2,3]],"shape":[1,2,2,2,2,1]}`,
		`{"systems":[[8,8]],"shape":null}`,
		`{"systems":[]}`,
		`{"systems":[[1]]}`,
		`{"systems":[[2,2]],"shape":[0]}`,
		`{`,
		`[]`,
		`{"systems":"nope"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := UnmarshalConfig(data)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		// Anything accepted must be a valid config...
		if err := cfg.Validate(); err != nil {
			t.Fatalf("UnmarshalConfig accepted an invalid config: %v", err)
		}
		// ...and survive marshal→unmarshal exactly.
		out, err := MarshalConfig(cfg)
		if err != nil {
			t.Fatalf("MarshalConfig of accepted config: %v", err)
		}
		cfg2, err := UnmarshalConfig(out)
		if err != nil {
			t.Fatalf("re-unmarshal of own output: %v\n%s", err, out)
		}
		if !configsEqual(cfg, cfg2) {
			t.Fatalf("round trip changed the config:\n%v\nvs\n%v", cfg, cfg2)
		}
	})
}

func configsEqual(a, b core.Config) bool {
	if len(a.Systems) != len(b.Systems) || len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Systems {
		ra, rb := a.Systems[i].Radices(), b.Systems[i].Radices()
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func FuzzReadTSVRoundTrip(f *testing.F) {
	// Seed with real WriteTSV output plus malformed variants.
	for _, radices := range [][]int{{2, 2}, {3, 3, 4}} {
		g := core.MixedRadix(radix.MustNew(radices...))
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("0\t0\t0\n")
	f.Add("# comment\n\n0\t0\t1\n0\t1\t0\n1\t0\t0\n1\t1\t0\n")
	f.Add("0\t0\n")
	f.Add("-1\t0\t0\n")
	f.Add("0 0 99999999\n")
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ReadTSV(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g); err != nil {
			t.Fatalf("WriteTSV of accepted topology: %v", err)
		}
		g2, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v\n%s", err, buf.String())
		}
		if !g.Equal(g2) {
			t.Fatalf("round trip changed the topology:\n%v\nvs\n%v", g, g2)
		}
	})
}
