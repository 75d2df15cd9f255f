// Package graphio serializes RadiX-Net topologies and configurations: TSV
// edge lists for topologies, and JSON for the configurations the serving
// tier's register and reload bodies carry.
package graphio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
	"github.com/radix-net/radixnet/internal/topology"
)

// ErrFormat is returned when parsing malformed input.
var ErrFormat = errors.New("graphio: malformed input")

// WriteTSV writes the whole topology as tab-separated `layer src dst` lines,
// 0-indexed, in layer order. It is the library's native interchange format.
func WriteTSV(w io.Writer, g *topology.FNNT) error {
	bw := bufio.NewWriter(w)
	for l := 0; l < g.NumSubs(); l++ {
		sub := g.Sub(l)
		for r := 0; r < sub.Rows(); r++ {
			for _, c := range sub.Row(r) {
				if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\n", l, r, c); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadTSV parses the WriteTSV format back into an FNNT. Layer sizes are
// inferred as one plus the largest index seen in each role; the edge list
// must produce a valid FNNT (no dangling nodes).
func ReadTSV(r io.Reader) (*topology.FNNT, error) {
	type edge struct{ l, u, v int }
	var edges []edge
	maxLayer := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: line %d: want 3 fields, got %d", ErrFormat, lineNo, len(fields))
		}
		l, err1 := strconv.Atoi(fields[0])
		u, err2 := strconv.Atoi(fields[1])
		v, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil || l < 0 || u < 0 || v < 0 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineNo, line)
		}
		edges = append(edges, edge{l, u, v})
		if l > maxLayer {
			maxLayer = l
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxLayer < 0 {
		return nil, fmt.Errorf("%w: no edges", ErrFormat)
	}
	rows := make([]int, maxLayer+1)
	cols := make([]int, maxLayer+1)
	for _, e := range edges {
		if e.u+1 > rows[e.l] {
			rows[e.l] = e.u + 1
		}
		if e.v+1 > cols[e.l] {
			cols[e.l] = e.v + 1
		}
	}
	// Adjacent layers share node sets: reconcile cols of layer l with rows
	// of layer l+1.
	for l := 0; l+1 <= maxLayer; l++ {
		if rows[l+1] > cols[l] {
			cols[l] = rows[l+1]
		} else {
			rows[l+1] = cols[l]
		}
	}
	builders := make([]*sparse.COO, maxLayer+1)
	for l := range builders {
		b, err := sparse.NewCOO(rows[l], cols[l])
		if err != nil {
			return nil, fmt.Errorf("%w: layer %d: %v", ErrFormat, l, err)
		}
		builders[l] = b
	}
	for _, e := range edges {
		if err := builders[e.l].Add(e.u, e.v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
	}
	subs := make([]*sparse.Pattern, len(builders))
	for l, b := range builders {
		subs[l] = b.Pattern()
	}
	return topology.New(subs...)
}

// ConfigJSON is the JSON wire form of a core.Config.
type ConfigJSON struct {
	Systems [][]int `json:"systems"`
	Shape   []int   `json:"shape,omitempty"`
}

// MarshalConfig encodes a core.Config as JSON.
func MarshalConfig(cfg core.Config) ([]byte, error) {
	cj := ConfigJSON{Shape: cfg.Shape}
	for _, s := range cfg.Systems {
		cj.Systems = append(cj.Systems, s.Radices())
	}
	return json.MarshalIndent(cj, "", "  ")
}

// UnmarshalConfig decodes and validates a core.Config from JSON.
func UnmarshalConfig(data []byte) (core.Config, error) {
	var cj ConfigJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return core.Config{}, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	systems := make([]radix.System, 0, len(cj.Systems))
	for i, radices := range cj.Systems {
		s, err := radix.New(radices...)
		if err != nil {
			return core.Config{}, fmt.Errorf("%w: system %d: %v", ErrFormat, i, err)
		}
		systems = append(systems, s)
	}
	return core.NewConfig(systems, cj.Shape)
}
