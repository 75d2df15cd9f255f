package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// Manifest is the part of BENCHMARK.json -selfcheck reads.
type Manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// ReadManifest loads BENCHMARK.json.
func ReadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("bench: manifest %s: %w", path, err)
	}
	return &m, nil
}

// MaxRangeShare is the (max − min)/median a set of runs may show on any
// workload × metric before -selfcheck fails: a tenth, the repeatability the
// issue that defined the benchmark asked of every five-run set. The bounds in
// BENCHMARK.json are what the driver holds a later change to; they are wider
// where this host cannot repeat a timing within a tenth (README, Bounds).
const MaxRangeShare = 0.10

// Worse reports by what share of a's value b is worse than a, given which
// direction is better (negative: b is better).
func Worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// SelfCheck runs every workload 2n times as two interleaved sets (A, B, A,
// B, …), each run in its own process with its own seed, and prints per
// workload × metric each set's median, quartiles and (max−min)/median and
// the set-to-set difference beside the bound from the manifest. It fails when
// set B is worse than set A by more than the bound, when the quartile spread
// of a set or of both pooled exceeds the bound, or when a set's range exceeds
// MaxRangeShare. A quartile spread above a third of the bound (the driver's
// target, not its limit) is marked but does not fail.
func SelfCheck(ctx context.Context, w io.Writer, manifestPath string, n int) error {
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("bench: selfcheck: %w", err)
	}
	// values[{workload, metric}][set] are the runs' readings.
	type cell struct{ workload, metric string }
	values := map[cell]*[2][]float64{}
	// A workload's 2n runs follow one another, alternating between the
	// sets, so both sets see the same stretch of the host's drift and that
	// stretch is as short as it can be.
	for _, wl := range m.Workloads {
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				seed := 1 + 2*i + set
				cmd := exec.CommandContext(ctx, exe, "--workload", wl.Name, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.Itoa(m.RunSeconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("bench: selfcheck: %s seed %d: %w", wl.Name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				correct, attempted, failed, metrics, err := ParseContractLine(lines[len(lines)-1])
				if err != nil {
					return err
				}
				if !correct || failed != 0 {
					return fmt.Errorf("bench: selfcheck: %s seed %d: %d of %d operations failed", wl.Name, seed, failed, attempted)
				}
				fmt.Fprintf(w, "run %d set %c %s seed %d:", i, 'A'+set, wl.Name, seed)
				for _, d := range m.EndToEnd {
					v, ok := metrics[d.Name]
					if !ok {
						return fmt.Errorf("bench: selfcheck: %s reported no %s", wl.Name, d.Name)
					}
					c := cell{wl.Name, d.Name}
					if values[c] == nil {
						values[c] = &[2][]float64{}
					}
					values[c][set] = append(values[c][set], v.Value)
					fmt.Fprintf(w, " %s=%.6g", d.Name, v.Value)
				}
				fmt.Fprintln(w)
			}
		}
	}

	breaches := 0
	fmt.Fprintf(w, "\n%-24s %-17s %3s %11s %11s %11s %7s %7s | %7s %6s\n",
		"workload", "metric", "set", "median", "q1", "q3", "iqr/med", "rng/med", "B vs A", "bound")
	for _, wl := range m.Workloads {
		for _, d := range m.EndToEnd {
			sets := values[cell{wl.Name, d.Name}]
			// The third row pools both sets: 2n runs, which for n = 5 is the
			// sample the driver takes its quartile spread from.
			rows := []struct {
				label string
				xs    []float64
			}{{"A", sets[0]}, {"B", sets[1]}, {"A+B", append(append([]float64(nil), sets[0]...), sets[1]...)}}
			for _, r := range rows {
				q1, q2, q3 := Quartiles(r.xs)
				iqr, rng := IQRShare(r.xs), RangeShare(r.xs)
				mark := ""
				switch {
				case iqr > d.Bound:
					mark, breaches = " BREACH(spread)", breaches+1
				case rng > MaxRangeShare && r.label != "A+B":
					mark, breaches = " BREACH(range)", breaches+1
				case iqr > d.Bound/3:
					mark = " wide(iqr>bound/3)"
				}
				fmt.Fprintf(w, "%-24s %-17s %3s %11.5g %11.5g %11.5g %7.4f %7.4f |", wl.Name, d.Name, r.label, q2, q1, q3, iqr, rng)
				if r.label == "B" {
					worse := Worse(Median(sets[0]), q2, d.Better)
					if worse > d.Bound {
						mark, breaches = mark+" BREACH(set)", breaches+1
					}
					fmt.Fprintf(w, " %+7.4f %6.3f", worse, d.Bound)
				}
				fmt.Fprintln(w, mark)
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("bench: selfcheck: %d breach(es)", breaches)
	}
	fmt.Fprintln(w, "selfcheck: no breach")
	return nil
}
