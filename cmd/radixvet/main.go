// Command radixvet runs the project's static-analysis suite: the three AST
// analyzers (hotpath, atomichygiene, ctxguard) over the packages named by
// its arguments, then the two compiler-diagnostic gates (escape, BCE)
// against the checked-in hotpath manifest.
//
// Usage:
//
//	go run ./cmd/radixvet ./...            # full suite: analyzers + gates
//	go run ./cmd/radixvet -gates=false ./internal/obs
//	go run ./cmd/radixvet -regen-manifest  # rewrite hotpath_manifest.json
//	go run ./cmd/radixvet -dir internal/analysis/testdata/src/hotpath
//
// Exit status is nonzero when any analyzer or gate reports a finding, so a
// bare CI step `go run ./cmd/radixvet ./...` is the whole integration.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/radix-net/radixnet/internal/analysis"
)

func main() {
	var (
		gates    = flag.Bool("gates", true, "run the escape and BCE compiler-diagnostic gates after the analyzers")
		manifest = flag.String("manifest", "", "hotpath manifest path (default MODULE/internal/analysis/hotpath_manifest.json)")
		regen    = flag.Bool("regen-manifest", false, "rewrite the hotpath manifest from the live source annotations and exit")
		dir      = flag.String("dir", "", "analyze one bare directory of Go files (testdata packages) with the AST analyzers only")
		list     = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-14s %s\n", "escape-gate", "assert manifest noescape functions heap-allocate nothing (go build -gcflags=-m)")
		fmt.Printf("%-14s %s\n", "bce-gate", "assert manifest bce regions compile without bounds checks (-d=ssa/check_bce/debug=1)")
		return
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	if *manifest == "" {
		*manifest = filepath.Join(moduleDir, "internal", "analysis", "hotpath_manifest.json")
	}

	if *dir != "" {
		prog, err := analysis.LoadDir(moduleDir, *dir)
		if err != nil {
			fatal(err)
		}
		report(run(prog))
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.LoadPackages(moduleDir, patterns...)
	if err != nil {
		fatal(err)
	}

	if *regen {
		m, err := analysis.DeriveManifest(prog)
		if err != nil {
			fatal(err)
		}
		if err := m.Save(*manifest); err != nil {
			fatal(err)
		}
		fmt.Printf("radixvet: wrote %s (%d noescape functions, %d bce regions)\n",
			*manifest, len(m.NoEscape), len(m.BCERegions))
		return
	}

	diags := run(prog)

	if *gates {
		m, err := analysis.LoadManifest(*manifest)
		if err != nil {
			fatal(fmt.Errorf("%w (run `go run ./cmd/radixvet -regen-manifest` to create it)", err))
		}
		derived, err := analysis.DeriveManifest(prog)
		if err != nil {
			fatal(err)
		}
		if drift := analysis.DiffManifest(m, derived); len(drift) > 0 {
			for _, d := range drift {
				fmt.Fprintf(os.Stderr, "radixvet: manifest drift: %s\n", d)
			}
			fmt.Fprintln(os.Stderr, "radixvet: annotations and hotpath_manifest.json disagree; run `go run ./cmd/radixvet -regen-manifest` and review the diff")
			os.Exit(1)
		}
		esc, err := analysis.EscapeGate(prog, m, moduleDir)
		if err != nil {
			fatal(err)
		}
		bce, err := analysis.BCEGate(prog, m, moduleDir)
		if err != nil {
			fatal(err)
		}
		diags = append(diags, esc...)
		diags = append(diags, bce...)
	}

	report(diags)
}

func run(prog *analysis.Program) []analysis.Diagnostic {
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		fatal(err)
	}
	return diags
}

func report(diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "radixvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("radixvet: no go.mod found above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "radixvet:", err)
	os.Exit(2)
}
