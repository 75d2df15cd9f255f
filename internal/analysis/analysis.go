// Package analysis is radixnet's static-analysis suite: a dependency-free
// reimplementation of the golang.org/x/tools/go/analysis driver shape
// (Analyzer/Pass/Diagnostic over type-checked packages) plus two
// compiler-diagnostic gates that parse `go build -gcflags` output to prove
// hot-path optimization invariants (zero heap escapes, bounds-check-free
// kernel loops) against a checked-in manifest.
//
// The paper's argument — structure known ahead of time beats runtime
// bookkeeping — applies to the codebase itself: the repo's headline numbers
// (0-alloc Engine.Infer and Histogram.Observe, bounds-check-free CSC
// gathers) rest on compiler behavior that one innocent refactor can silently
// destroy, with a noisy benchmark as the only tripwire. This package turns those invariants
// into machine-checked facts:
//
//   - hotpath: functions annotated //radix:hotpath must not call fmt/log/
//     time.Now, allocate, defer, or range over maps (see hotpath.go for the
//     annotation contract, including allow= escape hatches).
//   - atomichygiene: fields accessed through sync/atomic anywhere must never
//     be read or written non-atomically elsewhere.
//   - ctxguard: no context.Background()/TODO() or context-less outbound
//     requests below the server layer.
//
// Everything here uses only the standard library: packages load through
// `go list -deps -json` and type-check with go/types in one shared universe,
// so types.Object identities are comparable across packages. The intended
// entry point is `go run ./cmd/radixvet ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check. Run is invoked once per target
// package in dependency order; End, when non-nil, runs after every package
// has been visited — the hook cross-package analyzers (atomichygiene) use
// to flush diagnostics accumulated in Program.State.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	End  func(*Program, func(Diagnostic)) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	Target     bool // named by the load patterns (vs. pulled in as a dep)

	Files []*ast.File
	Types *types.Package
	Info  *types.Info // non-nil for targets only

	// TestFiles marks which of Files are in-package _test.go files. The
	// loader checks them into the package so cross-cutting analyzers
	// (atomichygiene) see test code too; production-convention analyzers
	// (hotpath, ctxguard) scope themselves to ProdFiles.
	TestFiles map[*ast.File]bool
}

// ProdFiles returns the package's non-test files — the scope of analyzers
// enforcing production-only conventions. Test code legitimately mints toy
// metric names and context.Background() roots; only contracts that test
// code can break for production code (atomic access hygiene) walk all
// Files.
func (p *Package) ProdFiles() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	files := make([]*ast.File, 0, len(p.Files)-len(p.TestFiles))
	for _, f := range p.Files {
		if !p.TestFiles[f] {
			files = append(files, f)
		}
	}
	return files
}

// Program is a universe of packages type-checked together, plus shared
// scratch state for cross-package analyzers.
type Program struct {
	Fset    *token.FileSet
	Pkgs    []*Package // dependency order
	Targets []*Package

	// State holds cross-package analyzer scratch, keyed by analyzer name.
	State map[string]any
}

// Run applies the analyzers to every target package and returns the
// findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		for _, pkg := range prog.Targets {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: report}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		if a.End != nil {
			name := a.Name
			if err := a.End(prog, func(d Diagnostic) {
				d.Analyzer = name
				report(d)
			}); err != nil {
				return diags, fmt.Errorf("%s: %w", a.Name, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{HotPath, AtomicHygiene, CtxGuard}
}

// walk traverses every file of the package, invoking fn with the ancestor
// stack (outermost first, not including n itself). Returning false prunes
// the subtree.
func walk(files []*ast.File, fn func(stack []ast.Node, n ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(stack, n) {
				// Pruned subtrees get no matching f(nil) pop: don't push.
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}
