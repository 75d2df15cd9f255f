// Package cliutil holds the helpers the command-line tools share: the
// semicolon-separated numeral systems of radixserve's -model flag, the
// NAME=VALUE maps of the QoS and zone flags of radixserve and radixrouter,
// the signal-then-drain tail of both servers, and the commit hash in the
// benchmark's environment fingerprint.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

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
	return parsePairs(text, func(val string) (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return 0, fmt.Errorf("weight %q, want a positive integer", val)
		}
		return n, nil
	})
}

// ParseZones parses radixrouter's "-zones" flag, "backend=zone,..." (e.g.
// "10.0.0.7:8080=rack-a,10.0.0.8:8080=rack-b"), into a map. Backends must
// be nonempty and unique and zones nonempty. Empty input yields nil.
func ParseZones(text string) (map[string]string, error) {
	return parsePairs(text, func(val string) (string, error) {
		if val == "" {
			return "", errors.New("empty zone")
		}
		return val, nil
	})
}

// parsePairs is the "name=value,..." grammar both map flags share, each
// value read by parse.
func parsePairs[V any](text string, parse func(string) (V, error)) (map[string]V, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	out := make(map[string]V)
	for _, part := range strings.Split(text, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("cliutil: %q: want NAME=VALUE", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("cliutil: %q given twice", name)
		}
		v, err := parse(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("cliutil: %q: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// DrainOnSignal blocks until SIGINT or SIGTERM (or until ctx ends), then
// drains through shutdown within timeout: the tail both servers' mains
// share. A failed drain is fatal.
func DrainOnSignal(ctx context.Context, timeout time.Duration, shutdown func(context.Context) error) {
	sig, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	<-sig.Done()
	stop()
	log.Printf("shutting down (draining for up to %v)", timeout)
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("drained cleanly")
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
