// Command radixbench runs the repository's benchmark (package bench): one
// workload per process, metrics by name with units, and the driver's
// one-line JSON result last. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/radix-net/radixnet/radixbench/bench"
)

func main() {
	var o bench.Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.Seed, "seed", 1, "seed for the input rows and their order")
	flag.Float64Var(&o.Seconds, "seconds", 30, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.TraceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON")
	flag.BoolVar(&o.VerifyOnly, "verify-only", false, "run every workload (or -workload) for one window and only check outputs")
	selfcheck := flag.Int("selfcheck", 0, "run every workload 2N times, as two interleaved sets of N, and compare them with the bounds")
	benchJSON := flag.String("benchmark-json", "BENCHMARK.json", "with -selfcheck: where the bounds are")
	flag.Parse()
	o.Trace = trace != 0

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o, *selfcheck, *benchJSON); err != nil {
		fmt.Fprintln(os.Stderr, "radixbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o bench.Options, selfcheck int, benchJSON string) error {
	if selfcheck > 0 {
		return bench.SelfCheck(ctx, os.Stdout, benchJSON, selfcheck)
	}
	if o.VerifyOnly && o.Workload == "" {
		for _, s := range bench.Specs {
			o.Workload = s.Name
			if err := runOne(ctx, o); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(ctx, o)
}

func runOne(ctx context.Context, o bench.Options) error {
	res, err := bench.Run(ctx, o)
	if err != nil {
		return err
	}
	if err := res.Print(os.Stdout); err != nil {
		return err
	}
	return res.Err()
}
