package graphio

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/topology"
)

func fig1Topology(t *testing.T) *topology.FNNT {
	t.Helper()
	g := core.MixedRadix(radix.MustNew(2, 2, 2))
	return g
}

func TestTSVRoundTrip(t *testing.T) {
	g := fig1Topology(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("TSV round trip changed the topology")
	}
}

func TestTSVRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 2 + rng.Intn(3)
		depth := 1 + rng.Intn(3)
		sys, err := radix.Uniform(base, depth)
		if err != nil {
			return false
		}
		g := core.MixedRadix(sys)
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g); err != nil {
			return false
		}
		back, err := ReadTSV(&buf)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTSVToleratesCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0\t0\t0\n0\t0\t1\n0\t1\t0\n0\t1\t1\n"
	g, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSubs() != 1 || g.NumEdges() != 4 {
		t.Fatalf("parsed %d layers %d edges", g.NumSubs(), g.NumEdges())
	}
}

func TestReadTSVMalformed(t *testing.T) {
	cases := []string{
		"0\t0\n",          // two fields
		"a\t0\t0\n",       // non-numeric
		"0\t-1\t0\n",      // negative
		"",                // empty
		"0\t0\t0\t0\t0\n", // five fields
	}
	for _, in := range cases {
		if _, err := ReadTSV(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Fatalf("input %q: error = %v, want ErrFormat", in, err)
		}
	}
}

func TestReadTSVDanglingNodesRejected(t *testing.T) {
	// Node 1 of layer 1 exists (as a target) but has no outgoing edge into
	// layer 2 — not a valid FNNT.
	in := "0\t0\t0\n0\t0\t1\n1\t0\t0\n"
	if _, err := ReadTSV(strings.NewReader(in)); err == nil {
		t.Fatal("dangling-node edge list accepted")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg, err := core.NewConfig(
		[]radix.System{radix.MustNew(3, 3, 4), radix.MustNew(2, 3)},
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != cfg.String() {
		t.Fatalf("round trip: %s vs %s", back, cfg)
	}
	// With a shape.
	cfg2, _ := core.NewConfig([]radix.System{radix.MustNew(2, 2)}, []int{1, 2, 1})
	data2, _ := MarshalConfig(cfg2)
	back2, err := UnmarshalConfig(data2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.String() != cfg2.String() {
		t.Fatalf("round trip: %s vs %s", back2, cfg2)
	}
}

func TestUnmarshalConfigMalformed(t *testing.T) {
	cases := []string{
		"not json",
		`{"systems": [[1,2]]}`,               // radix 1
		`{"systems": []}`,                    // no systems
		`{"systems": [[2,2],[3]]}`,           // product mismatch → invalid config
		`{"systems": [[2,2]], "shape": [1]}`, // bad shape
	}
	for _, in := range cases {
		if _, err := UnmarshalConfig([]byte(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestTSVExportOfLiftedNet(t *testing.T) {
	cfg, err := core.NewConfig([]radix.System{radix.MustNew(2, 2)}, []int{2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("lifted-net TSV round trip changed the topology")
	}
	// Sanity: streamed edges agree with the serialized ones.
	edgeCount := 0
	err = core.StreamEdges(cfg, func(layer int, u, v int64) bool {
		edgeCount++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if edgeCount != g.NumEdges() {
		t.Fatalf("streamed %d edges, topology has %d", edgeCount, g.NumEdges())
	}
}
