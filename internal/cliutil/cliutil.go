// Package cliutil holds the helpers the command-line tools share: the
// semicolon-separated numeral systems of radixserve's -model flag, the
// NAME=N class maps of the QoS flags of radixserve and radixrouter, and the
// commit hash in the benchmark's environment fingerprint.
package cliutil

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"

	"github.com/radix-net/radixnet/internal/radix"
)

// ParseSystems parses "(3,3,4);(3,3,4);(2,3)" into numeral systems.
func ParseSystems(text string) ([]radix.System, error) {
	if strings.TrimSpace(text) == "" {
		return nil, errors.New("cliutil: empty systems specification")
	}
	parts := strings.Split(text, ";")
	systems := make([]radix.System, 0, len(parts))
	for i, p := range parts {
		s, err := radix.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("cliutil: system %d: %w", i, err)
		}
		systems = append(systems, s)
	}
	return systems, nil
}

// ParseClassWeights parses a "-class-weight"/"-class-retries"–style flag,
// "name=N,name=N,..." (e.g. "interactive=8,batch=2,background=1"), into a
// map. Names must be nonempty and unique; values must be positive
// integers. Empty input yields nil (the caller's default).
func ParseClassWeights(text string) (map[string]int, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(text, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("cliutil: class weight %q: want NAME=N", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("cliutil: class %q given twice", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cliutil: class %q: weight %q, want a positive integer", name, val)
		}
		out[name] = n
	}
	return out, nil
}

// GitSHA returns the short commit hash of the working tree the tool runs
// in, or "unknown" outside a git checkout — the benchmark's environment
// fingerprint (radixbench/bench) carries it so a run can be tied back to the
// code that produced it.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
