package main

import (
	"strings"
	"testing"

	"netorient/internal/trace"
)

// TestRegressionRequiresBaselineTable: a selected table whose title
// matches no baseline table fails the check and is named, instead of
// being skipped while the other tables pass.
func TestRegressionRequiresBaselineTable(t *testing.T) {
	known := trace.NewTable("T0 — known", "graph", "counted speedup")
	known.AddRow("ring:4", 2.0)
	baseline := []jsonTable{{Title: "T0 — known", Headers: []string{"graph", "counted speedup"}, Rows: [][]string{{"ring:4", "2"}}}}
	if err := checkRegression([]*trace.Table{known}, baseline, 2); err != nil {
		t.Fatalf("matched table: %v", err)
	}
	extra := trace.NewTable("T9 — unbaselined", "graph", "counted speedup")
	extra.AddRow("ring:4", 2.0)
	err := checkRegression([]*trace.Table{known, extra}, baseline, 2)
	if err == nil || !strings.Contains(err.Error(), "T9 — unbaselined") {
		t.Fatalf("got %v, want an error naming the unbaselined table", err)
	}
}
