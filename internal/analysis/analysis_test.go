package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(abs, "go.mod")); err != nil {
		t.Fatalf("module root %s: %v", abs, err)
	}
	return abs
}

// runExpectations is the per-analyzer testdata driver: load the package,
// run the analyzer, diff diagnostics against the // want comments.
func runExpectations(t *testing.T, pkg string, analyzers []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	problems, err := CheckExpectations(moduleRoot(t), dir, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestHotPath(t *testing.T)       { runExpectations(t, "hotpath", []*Analyzer{HotPath}) }
func TestAtomicHygiene(t *testing.T) { runExpectations(t, "atomichygiene", []*Analyzer{AtomicHygiene}) }
func TestCtxGuard(t *testing.T)      { runExpectations(t, "ctxguard", []*Analyzer{CtxGuard}) }

// TestAnalyzersDontCrossTalk runs the full suite over every testdata
// package at once: each analyzer must produce exactly its own expected
// findings and nothing on the other packages' lines beyond what those
// packages expect.
func TestSuiteOverAllTestdata(t *testing.T) {
	for _, pkg := range []string{"hotpath", "atomichygiene", "ctxguard"} {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) { runExpectations(t, pkg, All()) })
	}
}

// TestHotPathDirectiveErrors covers malformed directives, whose
// diagnostics land on the directive comment line itself where no want
// comment can ride along.
func TestHotPathDirectiveErrors(t *testing.T) {
	prog, err := LoadDir(moduleRoot(t), filepath.Join("testdata", "src", "hotpathbaddirective"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, []*Analyzer{HotPath})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	got := strings.Join(msgs, "\n")
	for _, want := range []string{
		`unknown //radix:hotpath allow token "speed"`,
		`malformed //radix:hotpath directive: unexpected "fast"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing diagnostic %q in:\n%s", want, got)
		}
	}
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2:\n%s", len(diags), got)
	}
}

func TestParseCompilerDiagsEscapeFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "escape_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	diags := parseCompilerDiags(string(data), "/mod")
	// 9 position-prefixed lines parse; headers, the bare prose line, and
	// the two-field line do not.
	if len(diags) != 9 {
		t.Fatalf("parsed %d diagnostics, want 9: %+v", len(diags), diags)
	}
	first := diags[0]
	if first.File != "/mod/internal/obs/histogram.go" || first.Line != 58 || first.Col != 6 {
		t.Errorf("relative path not resolved against baseDir: %+v", first)
	}
	var escapes []compilerDiag
	for _, d := range diags {
		if isHeapEscape(d.Message) {
			escapes = append(escapes, d)
		}
	}
	if len(escapes) != 4 {
		t.Fatalf("classified %d heap escapes, want 4: %+v", len(escapes), escapes)
	}
	if escapes[1].File != "/mod/internal/serve/batcher.go" || escapes[1].Line != 401 {
		t.Errorf("unexpected escape diag: %+v", escapes[1])
	}
	// The "./relative.go" line: leading ./ trimmed, then resolved.
	if escapes[2].File != "/mod/relative.go" || escapes[2].Message != "moved to heap: buf" {
		t.Errorf("./ path mishandled: %+v", escapes[2])
	}
}

func TestIsHeapEscape(t *testing.T) {
	cases := []struct {
		msg  string
		want bool
	}{
		{"moved to heap: b", true},
		{`fmt.Sprintf("%016x%016x", ...) escapes to heap`, true},
		{"make([]classMetrics, n) escapes to heap", true},
		{"leaking param: trace", false},
		{"h does not escape", false},
		{"can inline bucketOf", false},
	}
	for _, c := range cases {
		if got := isHeapEscape(c.msg); got != c.want {
			t.Errorf("isHeapEscape(%q) = %t, want %t", c.msg, got, c.want)
		}
	}
}

// TestBCEGateCounting drives the gate's counting logic against the
// captured fixture by faking the region table: the fixture has, inside
// kernel.go lines 136-157, three IsSliceInBounds and one IsInBounds.
func TestBCEGateCounting(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "bce_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	diags := parseCompilerDiags(string(data), "/mod")
	if len(diags) != 8 {
		t.Fatalf("parsed %d diagnostics, want 8", len(diags))
	}
	count := func(file string, start, end int, msg string) int {
		n := 0
		for _, d := range diags {
			if strings.HasSuffix(d.File, file) && d.Line >= start && d.Line <= end && d.Message == msg {
				n++
			}
		}
		return n
	}
	if got := count("kernel.go", 136, 157, "Found IsSliceInBounds"); got != 3 {
		t.Errorf("csc-gather window checks = %d, want 3", got)
	}
	if got := count("kernel.go", 136, 157, "Found IsInBounds"); got != 1 {
		t.Errorf("csc-gather index checks = %d, want 1", got)
	}
	if got := count("radixkernel.go", 909, 1027, "Found IsInBounds"); got != 0 {
		t.Errorf("slice-only tap region index checks = %d, want 0", got)
	}
}

func TestManifestRoundTripAndDiff(t *testing.T) {
	m := &Manifest{
		GeneratedBy: "test",
		NoEscape: []NoEscapeEntry{
			{Package: "p", File: "b.go", Func: "B"},
			{Package: "p", File: "a.go", Func: "(*T).A"},
		},
		BCERegions: []BCERegionEntry{
			{Package: "p", File: "a.go", Region: "r1", AllowSlice: true, AllowIndex: 2},
		},
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NoEscape) != 2 || len(got.BCERegions) != 1 {
		t.Fatalf("round trip lost entries: %+v", got)
	}
	// Save sorts: a.go before b.go.
	if got.NoEscape[0].Func != "(*T).A" {
		t.Errorf("manifest not sorted: %+v", got.NoEscape)
	}
	if drift := DiffManifest(got, m); len(drift) != 0 {
		t.Errorf("identical manifests drifted: %v", drift)
	}

	// Removing an annotation and changing an allowance both surface.
	derived := &Manifest{
		NoEscape: []NoEscapeEntry{{Package: "p", File: "a.go", Func: "(*T).A"}},
		BCERegions: []BCERegionEntry{
			{Package: "p", File: "a.go", Region: "r1", AllowSlice: true, AllowIndex: 3},
		},
	}
	drift := DiffManifest(got, derived)
	if len(drift) != 3 {
		t.Fatalf("drift = %v, want 3 entries (func gone, allowance changed both ways)", drift)
	}
}

// TestBCERegionMarkers checks the marker parser against the live sparse
// kernels (the real annotations this PR gates) and the error paths
// against the repo's own analyzer testdata.
func TestBCERegionsLive(t *testing.T) {
	root := moduleRoot(t)
	prog, err := LoadPackages(root, "./internal/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Targets) != 1 {
		t.Fatalf("loaded %d targets, want 1", len(prog.Targets))
	}
	regions, err := bceRegions(prog, prog.Targets[0])
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bceRegion{}
	for _, r := range regions {
		if r.StartLine >= r.EndLine {
			t.Errorf("region %s has empty span %d-%d", r.Name, r.StartLine, r.EndLine)
		}
		byName[r.Name] = r
	}
	for _, want := range []string{"csc-gather", "csc-gather-regular", "csc-gather4"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("region %q not found (got %v)", want, regions)
		}
	}
	if r := byName["csc-gather"]; !r.AllowSlice || r.AllowIndex != 1 {
		t.Errorf("csc-gather allowances = slice=%t index=%d, want slice=true index=1", r.AllowSlice, r.AllowIndex)
	}
	if r := byName["csc-gather-regular"]; !r.AllowSlice || r.AllowIndex != 4 {
		t.Errorf("csc-gather-regular allowances = slice=%t index=%d, want slice=true index=4", r.AllowSlice, r.AllowIndex)
	}
}

// TestManifestMatchesSource is the drift check the gate runs, as a plain
// test: the checked-in manifest must match the live annotations.
func TestManifestMatchesSource(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root := moduleRoot(t)
	prog, err := LoadPackages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	checked, err := LoadManifest(filepath.Join(root, "internal", "analysis", "hotpath_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	derived, err := DeriveManifest(prog)
	if err != nil {
		t.Fatal(err)
	}
	if drift := DiffManifest(checked, derived); len(drift) != 0 {
		t.Errorf("manifest drift (run `go run ./cmd/radixvet -regen-manifest ./...`):\n  %s",
			strings.Join(drift, "\n  "))
	}
}
