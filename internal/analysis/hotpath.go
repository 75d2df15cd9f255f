package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath enforces the //radix:hotpath annotation contract.
//
// A function whose doc comment contains a line
//
//	//radix:hotpath
//	//radix:hotpath allow=alloc,time,defer
//
// promises its body is allocation-free and syscall-free: the inner loops of
// the sparse kernels, Histogram.Observe, TraceRing.Add, the batcher drain.
// Inside such a function the analyzer reports:
//
//   - any call into fmt, log, or log/slog (formatting machinery allocates
//     and boxes; hot paths must precompute their strings and errors);
//   - time.Now/Since/Until, unless allow=time (a ~60ns vDSO call — cheap
//     for a request path, ruinous inside a per-edge loop);
//   - allocation sites, unless allow=alloc: make/new/append, closures,
//     map/slice composite literals, &T{...}, string concatenation, and
//     explicit conversions of concrete values to interface types;
//   - defer, unless allow=defer (a fixed cost per call, not per iteration,
//     so request-scoped functions may opt in);
//   - go statements and range-over-map (nondeterministic order plus hidden
//     hashing cost).
//
// The allow= escape hatches exist because the contract is per-function, not
// per-line: ObserveTraced intentionally publishes one *Exemplar per
// observation (allow=alloc), and the batcher's execute reads the clock once
// per batch (allow=time); no annotated function defers today, since
// execute gives its engine-quota slot back with a plain receive. The
// escape/BCE gates (gates.go) remain the ground truth for what the compiler
// actually did; this analyzer is the fast, in-editor approximation that
// names the offending operation.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "report allocation/logging/clock/defer operations inside //radix:hotpath functions",
	Run:  runHotPath,
}

// hotFunc is one annotated function: shared between the analyzer, the
// manifest regenerator, and the escape gate (which attributes compiler
// diagnostics to functions by line span).
type hotFunc struct {
	Decl     *ast.FuncDecl
	Name     string // receiver-qualified, e.g. (*Histogram).Observe
	File     string
	Line     int // declaration line
	EndLine  int // last line of the body
	Allow    map[string]bool
	AllowPos token.Pos
}

// hotpathFuncs scans a package for //radix:hotpath annotations. A malformed
// annotation (unknown allow token) is reported through report when non-nil.
func hotpathFuncs(prog *Program, pkg *Package, report func(pos token.Pos, format string, args ...any)) []hotFunc {
	var out []hotFunc
	for _, f := range pkg.ProdFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(c.Text, "//radix:hotpath")
				if !ok {
					continue
				}
				hf := hotFunc{
					Decl:  fd,
					Name:  funcDisplayName(fd),
					Allow: map[string]bool{},
				}
				for _, field := range strings.Fields(rest) {
					val, ok := strings.CutPrefix(field, "allow=")
					if !ok {
						if report != nil {
							report(c.Pos(), "malformed //radix:hotpath directive: unexpected %q", field)
						}
						continue
					}
					for _, tok := range strings.Split(val, ",") {
						switch tok {
						case "alloc", "time", "defer":
							hf.Allow[tok] = true
						default:
							if report != nil {
								report(c.Pos(), "unknown //radix:hotpath allow token %q (want alloc, time, defer)", tok)
							}
						}
					}
				}
				pos := prog.Fset.Position(fd.Pos())
				hf.File = pos.Filename
				hf.Line = pos.Line
				if fd.Body != nil {
					hf.EndLine = prog.Fset.Position(fd.Body.End()).Line
				} else {
					hf.EndLine = pos.Line
				}
				out = append(out, hf)
				break
			}
		}
	}
	return out
}

// funcDisplayName renders a receiver-qualified function name the way the
// manifest and diagnostics refer to it: Observe on *Histogram becomes
// (*Histogram).Observe; plain functions keep their identifier.
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	var b strings.Builder
	b.WriteByte('(')
	writeRecvType(&b, t)
	b.WriteByte(')')
	b.WriteByte('.')
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, t ast.Expr) {
	switch t := t.(type) {
	case *ast.StarExpr:
		b.WriteByte('*')
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver Type[T]
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		fmt.Fprintf(b, "%v", t)
	}
}

// bannedCallPkgs are import paths a hot path must never call into.
var bannedCallPkgs = map[string]string{
	"fmt":      "formats and allocates",
	"log":      "locks and formats",
	"log/slog": "allocates attribute records",
}

// clockFuncs are the time-package functions gated behind allow=time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runHotPath(pass *Pass) error {
	funcs := hotpathFuncs(pass.Prog, pass.Pkg, pass.Reportf)
	info := pass.Pkg.Info
	for _, hf := range funcs {
		if hf.Decl.Body == nil {
			continue
		}
		allow := hf.Allow
		walk([]*ast.File{fileOf(pass.Pkg, hf.Decl)}, func(stack []ast.Node, n ast.Node) bool {
			// Constrain the walk to this one declaration.
			if _, isFile := n.(*ast.File); isFile {
				return true
			}
			if len(stack) == 1 && n != ast.Node(hf.Decl) {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				checkHotCall(pass, hf, info, n)
			case *ast.DeferStmt:
				if !allow["defer"] {
					pass.Reportf(n.Pos(), "%s: defer in hot path (amortize outside the loop or annotate allow=defer)", hf.Name)
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "%s: go statement in hot path (goroutine start allocates a stack)", hf.Name)
			case *ast.FuncLit:
				if !allow["alloc"] {
					pass.Reportf(n.Pos(), "%s: closure literal in hot path may allocate", hf.Name)
				}
			case *ast.CompositeLit:
				checkHotComposite(pass, hf, info, stack, n)
			case *ast.BinaryExpr:
				if n.Op == token.ADD && !allow["alloc"] && isStringType(info, n.X) {
					pass.Reportf(n.Pos(), "%s: string concatenation allocates in hot path", hf.Name)
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "%s: range over map in hot path (hash iteration, nondeterministic order)", hf.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// fileOf returns the *ast.File containing decl.
func fileOf(pkg *Package, decl ast.Decl) *ast.File {
	for _, f := range pkg.Files {
		if f.Pos() <= decl.Pos() && decl.End() <= f.End() {
			return f
		}
	}
	return nil
}

// checkHotCall classifies one call expression inside a hot function.
func checkHotCall(pass *Pass, hf hotFunc, info *types.Info, call *ast.CallExpr) {
	allow := hf.Allow
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok && !allow["alloc"] {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s: %s allocates in hot path", hf.Name, b.Name())
			}
			return
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel]; ok && obj.Pkg() != nil {
			path := obj.Pkg().Path()
			if why, banned := bannedCallPkgs[path]; banned {
				pass.Reportf(call.Pos(), "%s: calls %s.%s in hot path (%s)", hf.Name, path, fun.Sel.Name, why)
				return
			}
			if path == "time" && clockFuncs[fun.Sel.Name] && !allow["time"] {
				pass.Reportf(call.Pos(), "%s: time.%s in hot path (pass the timestamp in or annotate allow=time)", hf.Name, fun.Sel.Name)
				return
			}
		}
	}
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && !allow["alloc"] {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := info.Types[call.Args[0]]; ok && atv.Type != nil && !types.IsInterface(atv.Type) {
				pass.Reportf(call.Pos(), "%s: conversion to %s boxes %s in hot path", hf.Name, tv.Type, atv.Type)
			}
		}
	}
}

// checkHotComposite reports heap-bound composite literals: map/slice
// literals always allocate; struct literals only when their address is
// taken (&T{...} placed on the heap whenever it outlives the frame — the
// escape gate decides, but in a hot path even a stack copy of &T{} is a
// smell worth an explicit allow=alloc).
func checkHotComposite(pass *Pass, hf hotFunc, info *types.Info, stack []ast.Node, lit *ast.CompositeLit) {
	if hf.Allow["alloc"] {
		return
	}
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "%s: map literal allocates in hot path", hf.Name)
	case *types.Slice:
		// Nested literals inside an outer slice/array literal are part of
		// the outer allocation; report the outermost only.
		if len(stack) > 0 {
			if _, inLit := stack[len(stack)-1].(*ast.CompositeLit); inLit {
				return
			}
		}
		pass.Reportf(lit.Pos(), "%s: slice literal allocates in hot path", hf.Name)
	default:
		if len(stack) > 0 {
			if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
				pass.Reportf(lit.Pos(), "%s: &%s{...} in hot path likely escapes", hf.Name, types.TypeString(tv.Type, nil))
			}
		}
	}
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
