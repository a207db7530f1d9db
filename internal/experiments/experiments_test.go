package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"netorient/internal/trace"
)

// TestAllExperimentsProduceTables runs every experiment in quick mode
// and checks each produces a non-empty, renderable table. This is the
// end-to-end integration test of the reproduction harness. Under
// -short, T17 runs its body on grid:64x64 and barabasi:4096:3 instead
// of its committed n=2²⁰ and n=2¹⁸ graphs.
func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			run := e.Run
			if e.ID == "T17" && testing.Short() {
				run = func(cfg Config) (*trace.Table, error) { return t17(cfg, 64, 4096) }
			}
			tb, err := run(Config{Seed: 42, Quick: true})
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Artefact, err)
			}
			if tb.Rows() == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			var buf bytes.Buffer
			if err := tb.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Errorf("%s: table title %q does not carry the experiment id", e.ID, tb.Title)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("T1"); !ok {
		t.Error("T1 missing")
	}
	if _, ok := ByID("zzz"); ok {
		t.Error("unknown id found")
	}
}

// TestExperimentsAreDeterministic: equal seeds yield equal tables.
func TestExperimentsAreDeterministic(t *testing.T) {
	for _, id := range []string{"F2", "T5", "T8"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		render := func() string {
			tb, err := e.Run(Config{Seed: 7, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tb.Render(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		if render() != render() {
			t.Errorf("%s is not deterministic under a fixed seed", id)
		}
	}
}

// TestT1LinearityShape asserts the headline claim numerically: the
// moves/n ratio of the largest size is within 3× of the smallest — a
// loose but meaningful O(n) witness.
func TestT1LinearityShape(t *testing.T) {
	tb, err := T1DFTNOScaling(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tb.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")[1:]
	perTopo := map[string][]float64{}
	for _, line := range lines {
		f := strings.Split(line, ",")
		topo := f[0]
		var ratio float64
		if _, err := fmt.Sscan(f[len(f)-1], &ratio); err != nil {
			t.Fatalf("bad ratio %q: %v", f[len(f)-1], err)
		}
		perTopo[topo] = append(perTopo[topo], ratio)
	}
	for topo, ratios := range perTopo {
		first, last := ratios[0], ratios[len(ratios)-1]
		if last > 3*first+1 {
			t.Errorf("%s: moves/n grew from %.2f to %.2f — not O(n)-shaped", topo, first, last)
		}
	}
}
