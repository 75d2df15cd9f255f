package radixnet_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	_ "github.com/radix-net/radixnet" // links both tiers, whose package init declares every family
	"github.com/radix-net/radixnet/internal/obs"
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
