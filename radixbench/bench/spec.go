// Package bench is the repository's benchmark: four workloads over the
// kernel → engine → batcher → HTTP codec → router stack, five end-to-end
// metrics measured with the harness's tracing off, and a traced run that
// prices every layer by calling nested public entry points on the same
// inputs. It drives the system only through exported functions, in one
// process, and verifies every output word against a per-row CSC oracle.
// README.md in the parent directory says what each number means and why it
// was chosen.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/dataset"
	"github.com/radix-net/radixnet/internal/infer"
	"github.com/radix-net/radixnet/internal/radix"
	"github.com/radix-net/radixnet/internal/sparse"
)

// InputRows is how many distinct input rows a seed generates.
const InputRows = 64

// Kind is how a workload reaches the system.
type Kind int

const (
	// KindOffline calls Engine.Infer directly.
	KindOffline Kind = iota
	// KindServe posts JSON to a serve.Server over loopback HTTP.
	KindServe
	// KindRouter posts the same JSON to a cluster.Router in front of two
	// serve.Servers.
	KindRouter
)

// Spec fixes one workload. Every count is a constant of the benchmark, not
// a flag: windows hold equal work, so a rate is never quantised by whole
// batches, and set-up moves only when build work moves.
type Spec struct {
	Name string
	Why  string
	Kind Kind
	// Model is the served (or directly inferred) network.
	Model func() (core.Config, error)
	// Engines sizes the serve pool (serving kinds only).
	Engines int
	// RowsPerOp is the rows one operation carries.
	RowsPerOp int
	// OpsPerWindow is the fixed work of one measured window, about a quarter
	// of a second: the host's quiet stretches are often no longer, and the
	// timed metrics are read off the window it disturbed least.
	OpsPerWindow int
	// WarmupOps is the fixed number of operations that end set-up, sized so
	// set-up lasts at least a second.
	WarmupOps int
	// Period, when nonzero, makes the workload schedule-driven: operation
	// j is due at start + j·Period and is timed from then, whether or not
	// the previous reply had arrived. Zero is a closed loop.
	Period time.Duration
	// Conns is how many connections are each due one request per operation
	// (schedule-driven only; 0 means 1). An operation is then a burst of
	// Conns concurrent requests of RowsPerOp rows each.
	Conns int
}

// Due is when operation j is due, counted from the start of its phase
// (schedule-driven workloads only).
func (s Spec) Due(j int) time.Duration { return time.Duration(j) * s.Period }

func gcConfig(layers int) func() (core.Config, error) {
	return func() (core.Config, error) { return core.GraphChallengeConfig(1024, layers) }
}

// Row512Config is the radix (8,8,8) model of the two single-row workloads
// and of the nested-call ledger: 512 wide, 3 layers.
func Row512Config() (core.Config, error) {
	sys, err := radix.New(8, 8, 8)
	if err != nil {
		return core.Config{}, err
	}
	return core.NewConfig([]radix.System{sys}, nil)
}

// Specs lists the workloads in the order BENCHMARK.json names them.
var Specs = []Spec{
	{
		Name: "offline_gc1024x120_b64",
		Why:  "one caller, 64-row Engine.Infer on Graph Challenge 1024x120: sparse+infer+parallel are all of the time, so kernel work shows here and nowhere else",
		Kind: KindOffline, Model: gcConfig(120),
		RowsPerOp: InputRows, OpsPerWindow: 4, WarmupOps: 14,
	},
	{
		Name: "serve_row512_c1",
		Why:  "one closed-loop HTTP client, single-row JSON requests to serve: the kernel is under 1% of a request, so codec, HTTP and batcher are what is measured",
		Kind: KindServe, Model: Row512Config, Engines: 2,
		RowsPerOp: 1, OpsPerWindow: 125, WarmupOps: 600,
	},
	{
		Name: "router_row512_c1",
		Why:  "the same traffic through cluster.Router and two backends: differs from serve_row512_c1 only by the hop, so a router-only change moves this and nothing else",
		Kind: KindRouter, Model: Row512Config, Engines: 2,
		RowsPerOp: 1, OpsPerWindow: 110, WarmupOps: 600,
	},
	{
		Name: "serve_gc1024x24_burst2",
		Why:  "schedule-driven: every 12.5 ms both of 2 connections are due an 8-row request to a 1024x24 model, timed from the due time; two multi-row requests in flight, so kernel, codec and queueing all count",
		Kind: KindServe, Model: gcConfig(24), Engines: 2,
		RowsPerOp: 8, OpsPerWindow: 20, WarmupOps: 80,
		// Not the 25 ms first proposed: that demand fits one vCPU, and the
		// guest kernel then runs the whole process on one and leaves the
		// other idle in most runs but not all (README, burst2).
		Period: 12500 * time.Microsecond, Conns: 2,
	},
}

// SpecByName finds a workload.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Inputs are everything a seed determines: the rows, the order operations
// take them in, and — computed by the oracle, never by the code under test —
// the output every row must produce.
type Inputs struct {
	Width int
	// Rows[i] is input row i; Want[i] is its expected output.
	Rows [][]float64
	Want [][]float64
	// Order is a seeded permutation of row indices: operation j carries
	// rows Order[j·RowsPerOp …] (wrapping).
	Order []int
}

// NewInputs generates the seed's rows and order and runs the oracle: each
// row alone through a CSC-kernel engine built from the same config. The
// oracle shares no kernel, batching or transport with the measured paths.
func NewInputs(model core.Config, seed int64) (*Inputs, error) {
	width := model.LayerWidths()[0]
	batch, err := dataset.SparseBatch(InputRows, width, width/10, seed)
	if err != nil {
		return nil, fmt.Errorf("bench: inputs: %w", err)
	}
	oracle, err := infer.FromConfigKernel(model, infer.KernelCSC)
	if err != nil {
		return nil, fmt.Errorf("bench: oracle: %w", err)
	}
	in := &Inputs{Width: width, Order: rand.New(rand.NewSource(seed)).Perm(InputRows)}
	for r := 0; r < InputRows; r++ {
		row, err := batch.RowsView(r, r+1)
		if err != nil {
			return nil, fmt.Errorf("bench: inputs: %w", err)
		}
		out, err := oracle.Infer(row)
		if err != nil {
			return nil, fmt.Errorf("bench: oracle row %d: %w", r, err)
		}
		in.Rows = append(in.Rows, batch.RowSlice(r))
		in.Want = append(in.Want, append([]float64(nil), out.RowSlice(0)...))
	}
	return in, nil
}

// Pick returns the row indices operation op carries.
func (in *Inputs) Pick(op, rows int) []int {
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = in.Order[(op*rows+i)%len(in.Order)]
	}
	return idx
}

// Batch lays the picked rows out as one dense matrix (the offline workload's
// operand).
func (in *Inputs) Batch(idx []int) (*sparse.Dense, error) {
	data := make([]float64, 0, len(idx)*in.Width)
	for _, r := range idx {
		data = append(data, in.Rows[r]...)
	}
	return sparse.DenseFromSlice(len(idx), in.Width, data)
}

// Verify reports whether got is, word for word, the oracle's output for row.
func (in *Inputs) Verify(row int, got []float64) bool {
	want := in.Want[row]
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			return false
		}
	}
	return true
}
