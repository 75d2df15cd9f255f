package radixnet_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	_ "github.com/radix-net/radixnet" // links both tiers, whose package init declares every family
	"github.com/radix-net/radixnet/internal/obs"
	"github.com/radix-net/radixnet/internal/serve"
)

// TestREADMEMetricReference fails when the README's metric reference
// table and the families registered with internal/obs differ, printing
// the expected table so the fix is a paste.
func TestREADMEMetricReference(t *testing.T) {
	var want strings.Builder
	want.WriteString("| Family | Type | Labels | Help |\n|---|---|---|---|\n")
	for _, f := range obs.Families() {
		labels := "–"
		if len(f.Labels()) > 0 {
			labels = "`" + strings.Join(f.Labels(), "`, `") + "`"
		}
		fmt.Fprintf(&want, "| `%s` | %s | %s | %s |\n", f.Name(), f.Kind(), labels, f.Help())
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(readme), "<!-- metrics:begin -->\n")
	if got, _, _ := strings.Cut(rest, "<!-- metrics:end -->"); got != want.String() {
		t.Fatalf("README.md: the table between <!-- metrics:begin --> and <!-- metrics:end --> is out of date; replace it with:\n%s", want.String())
	}
}

// TestCitedDocsExist fails when README.md or any Go file (package docs,
// comments, printed hints) names a Markdown file that is not in the
// repository, resolved from the root or from the citing file's directory.
func TestCitedDocsExist(t *testing.T) {
	mdName := regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir // .git, build caches
		}
		if d.IsDir() || (path != "README.md" && filepath.Ext(path) != ".go") {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range mdName.FindAllString(string(text), -1) {
			if _, err := os.Stat(name); err == nil {
				continue
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(path), name)); err != nil {
				t.Errorf("%s cites %s, which does not exist", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestREADMEClientTable fails when the README's table of what the router
// asks a backend and serve.Client's methods differ: every method but
// GetJSON (the selftest's reader of the debug and SLO endpoints) has a
// place in the table's second column, and nothing else does.
func TestREADMEClientTable(t *testing.T) {
	var want []string
	client := reflect.TypeOf(serve.Client{})
	for i := range client.NumMethod() {
		if name := client.Method(i).Name; name != "GetJSON" {
			want = append(want, name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(readme), "<!-- client:begin -->\n")
	table, _, _ := strings.Cut(rest, "<!-- client:end -->")
	var got []string
	quoted := regexp.MustCompile("`([A-Za-z]+)`")
	for _, row := range strings.Split(table, "\n")[2:] { // past the header and rule
		if cells := strings.Split(row, "|"); len(cells) > 2 {
			for _, name := range quoted.FindAllStringSubmatch(cells[2], -1) {
				got = append(got, name[1])
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("README.md: the table between <!-- client:begin --> and <!-- client:end --> names %v; serve.Client has %v", got, want)
	}
}

// kernelLineBudget is the most non-test Go lines internal/sparse and
// internal/infer may hold together (ROADMAP B): a new form pays for itself in
// lines deleted elsewhere.
const kernelLineBudget = 3212

// TestKernelLineBudget fails when internal/sparse and internal/infer together
// hold more non-test Go lines than kernelLineBudget, and prints their count,
// so that moving the budget — down after a deletion, or up when a change
// argues for it — is a paste.
func TestKernelLineBudget(t *testing.T) {
	lines := 0
	for _, dir := range []string{"internal/sparse", "internal/infer"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += strings.Count(string(text), "\n")
		}
	}
	t.Logf("internal/sparse + internal/infer: %d non-test lines; const kernelLineBudget = %d", lines, lines)
	if lines > kernelLineBudget {
		t.Fatalf("internal/sparse + internal/infer hold %d non-test lines, over the budget of %d", lines, kernelLineBudget)
	}
}

// TestFacadeHasCallers fails when radixnet.go exports a name nothing calls,
// printing the names to delete. A name has a caller when a program under
// examples/ or a ```go block of README.md uses it, or when the signature of a
// function that has one mentions it.
func TestFacadeHasCallers(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "radixnet.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sigs := map[string]*ast.FuncType{} // every exported name; nil for all but functions
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			sigs[d.Name.Name] = d.Type
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					sigs[s.Name.Name] = nil
				case *ast.ValueSpec:
					for _, name := range s.Names {
						sigs[name.Name] = nil
					}
				}
			}
		}
	}
	var callers strings.Builder
	programs, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(programs, "README.md") {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if path != "README.md" {
			callers.Write(text)
			continue
		}
		for _, block := range regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(text), -1) {
			callers.WriteString(block[1])
		}
	}
	used := map[string]bool{}
	var queue []string
	use := func(name string) {
		if _, facade := sigs[name]; facade && !used[name] {
			used[name] = true
			queue = append(queue, name)
		}
	}
	for _, m := range regexp.MustCompile(`\bradixnet\.([A-Z]\w*)`).FindAllStringSubmatch(callers.String(), -1) {
		use(m[1])
	}
	for ; len(queue) > 0; queue = queue[1:] {
		if sig := sigs[queue[0]]; sig != nil {
			ast.Inspect(sig, func(n ast.Node) bool {
				if _, qualified := n.(*ast.SelectorExpr); qualified {
					return false // io.Writer, big.Int: not facade names
				}
				if id, ok := n.(*ast.Ident); ok {
					use(id.Name)
				}
				return true
			})
		}
	}
	var uncalled []string
	for name := range sigs {
		if ast.IsExported(name) && !used[name] {
			uncalled = append(uncalled, name)
		}
	}
	slices.Sort(uncalled)
	t.Logf("radixnet.go: %d exported names, %d with a caller", len(sigs), len(used))
	if len(uncalled) > 0 {
		t.Fatalf("radixnet.go exports names no example, README Go block or kept signature uses; delete them: %s", strings.Join(uncalled, ", "))
	}
}
