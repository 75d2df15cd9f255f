// Command radixgen generates a RadiX-Net topology and exports it.
//
// Usage:
//
//	radixgen -systems "(3,3,4);(3,3,4);(2,3)" [-shape 1,2,…,1] [-format tsv|mtx|dot|json|stats] [-o FILE]
//	radixgen -config cfg.json -format tsv
//
// Formats:
//
//	tsv    layer/src/dst edge list (default)
//	mtx    Matrix Market, one pattern per layer separated by blank lines
//	dot    Graphviz digraph (small nets)
//	json   the validated configuration itself
//	stats  human-readable summary: widths, edges, density, path counts
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/radix-net/radixnet/internal/cliutil"
	"github.com/radix-net/radixnet/internal/core"
	"github.com/radix-net/radixnet/internal/graphio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("radixgen: ")
	var (
		configPath = flag.String("config", "", "JSON configuration file")
		systems    = flag.String("systems", "", `systems, e.g. "(3,3,4);(3,3,4);(2,3)"`)
		shape      = flag.String("shape", "", "dense shape D, e.g. 1,2,2,1 (empty = all ones)")
		format     = flag.String("format", "tsv", "output format: tsv|mtx|dot|json|stats")
		outPath    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	cfg, err := cliutil.LoadConfig(*configPath, *systems, *shape)
	if err != nil {
		log.Fatal(err)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}

	if err := run(out, cfg, *format); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, cfg core.Config, format string) error {
	switch format {
	case "json":
		data, err := graphio.MarshalConfig(cfg)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", data)
		return err
	case "stats":
		return writeStats(out, cfg)
	}

	g, err := core.Build(cfg)
	if err != nil {
		return err
	}
	switch format {
	case "tsv":
		return graphio.WriteTSV(out, g)
	case "dot":
		return graphio.WriteDOT(out, g, "radixnet")
	case "mtx":
		for i := 0; i < g.NumSubs(); i++ {
			if err := graphio.WriteMatrixMarket(out, g.Sub(i)); err != nil {
				return err
			}
			if i+1 < g.NumSubs() {
				if _, err := fmt.Fprintln(out); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func writeStats(out io.Writer, cfg core.Config) error {
	fmt.Fprintf(out, "config:        %s\n", cfg)
	fmt.Fprintf(out, "N':            %d\n", cfg.NPrime())
	fmt.Fprintf(out, "systems:       %d (total radices %d)\n", cfg.NumSystems(), cfg.TotalRadices())
	fmt.Fprintf(out, "layer widths:  %v\n", cfg.LayerWidths())
	fmt.Fprintf(out, "nodes:         %s\n", cfg.NumNodes())
	fmt.Fprintf(out, "edges:         %s (dense: %s)\n", cfg.NumEdges(), cfg.DenseEdges())
	fmt.Fprintf(out, "density eq(4): %.6g\n", core.Density(cfg))
	fmt.Fprintf(out, "approx eq(5):  %.6g  (µ=%.3g)\n", core.DensityApproxMu(cfg.MeanRadix(), cfg.NPrime()), cfg.MeanRadix())
	fmt.Fprintf(out, "approx eq(6):  %.6g  (d=%.3g)\n", core.DensityApproxMuD(cfg.MeanRadix(), cfg.Depth()), cfg.Depth())
	fmt.Fprintf(out, "paths/pair:    %s (Theorem 1, generalized)\n", cfg.TheoreticalPaths())
	if cfg.LastProduct() != cfg.NPrime() {
		fmt.Fprintf(out, "  note: last system product %d < N'=%d; the paper's printed formula would give %s (erratum E-b, see core.TestErratumEbDivisorLastSystem)\n",
			cfg.LastProduct(), cfg.NPrime(), cfg.PaperTheoreticalPaths())
	}
	return nil
}
