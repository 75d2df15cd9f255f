package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// What the retired metric-name analyzer accepted stays accepted: a range
// exposition of a non-latency family, and a latency family on the shared
// ladder.
var (
	testBatchRows   = NewBuckets("radixserve_test_batch_rows", "h", 1, 0, 8)
	testExecSeconds = NewSeconds("radixserve_test_exec_seconds", "h")
)

// TestDeclareRejects holds the constructor to the rules the metric-name
// analyzer used to pattern-match for after the fact (its fixture's bad
// names are the first cases): a violation panics at declaration, which
// for a real family is package init — every test run.
func TestDeclareRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		declare func()
		want    string // substring of the panic
	}{
		{"uppercase and dash", func() { NewCounter("radixserve_Bad-Total", "h") }, "convention"},
		{"uppercase", func() { NewCounter("radixrouter_UPPER_total", "h") }, "convention"},
		{"camel case", func() { NewCounter("radixserve_batchesTotal", "h") }, "convention"},
		{"capitalised gauge", func() { NewGauge("radixserve_Queue_Depth", "h") }, "convention"},
		{"dash", func() { NewCounter("radixrouter_picks-total", "h") }, "convention"},
		{"no tier prefix", func() { NewSeconds("exec_seconds", "h") }, "convention"},
		{"trailing underscore", func() { NewGauge("radixserve_depth_", "h") }, "convention"},
		{"latency family at scale 1e6", func() { NewBuckets("radixserve_lat_seconds", "h", 1e6, minExpoBucket, maxExpoBucket) }, "shared ladder"},
		{"latency family on a truncated window", func() { NewBuckets("radixserve_lat_seconds", "h", 1e9, 0, 8) }, "shared ladder"},
		{"window past the bucket table", func() { NewBuckets("radixserve_batch_rows", "h", 1, 0, NumBuckets) }, "window"},
		{"counter not named _total", func() { NewCounter("radixserve_requests", "h") }, "_total"},
		{"gauge named _total", func() { NewGauge("radixserve_requests_total", "h") }, "_total"},
		{"duplicate", func() { NewSeconds(testExecSeconds.Name(), "h") }, "declared twice"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one mentioning %q", tc.name, msg, tc.want)
				}
			}()
			tc.declare()
		}()
	}
	names := map[string]bool{}
	for _, f := range Families() {
		names[f.Name()] = true
	}
	if !names[testBatchRows.Name()] || !names[testExecSeconds.Name()] || names["radixserve_lat_seconds"] {
		t.Errorf("Families() lists %v: want the two valid declarations and none of the rejected", names)
	}
}

// TestExpositionHeadersOnlyInObs keeps hand-rolled exposition from coming
// back: outside this package no non-test source may hold a "# HELP" or
// "# TYPE" literal — families are declared, and the Writer prints them.
func TestExpositionHeadersOnlyInObs(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			strings.HasPrefix(path, filepath.Join(root, "internal", "obs")+string(filepath.Separator)) {
			return err
		}
		src, err := os.ReadFile(path)
		if err == nil && (strings.Contains(string(src), "# HELP") || strings.Contains(string(src), "# TYPE")) {
			t.Errorf("%s holds a # HELP/# TYPE literal: declare an obs family and write it through obs.Writer", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
