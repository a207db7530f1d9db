package main

import (
	"encoding/json"
	"os"
	"testing"

	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// seeds are the development seed and the held-out seed README.md
// documents; every workload runs on both.
var seeds = []int64{1, 2026}

// deterministicCounts drops the counts that depend on how long a run
// took rather than on its seed.
func deterministicCounts(c map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range c {
		switch k {
		case "samples", "gc_cycles", "spans":
		default:
			out[k] = v
		}
	}
	return out
}

// sameCounts requires every count to repeat exactly, except the bytes
// allocated: sync.Pool keeps a per-processor private slot, so whether
// a Get after a goroutine moved between processors hits or allocates
// depends on the scheduler. Those bytes must repeat within 1% or 8 KiB,
// a handful of pooled scratch buffers.
func sameCounts(t *testing.T, what string, a, b map[string]int64) {
	t.Helper()
	a, b = deterministicCounts(a), deterministicCounts(b)
	if len(a) != len(b) {
		t.Errorf("%s: counts %v and %v differ", what, a, b)
		return
	}
	for k, v := range a {
		d := b[k] - v
		if k == "alloc_bytes" && max(d, -d) <= max(v/100, 8<<10) {
			continue
		}
		if d != 0 {
			t.Errorf("%s: %s = %d and %d", what, k, v, b[k])
		}
	}
}

// TestSmoke runs every workload at toy size on both seeds, measured and
// traced, and checks the output the benchmark contract asks for.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range seeds {
			m, err := execute(w.name, seed, 0, false, true, "")
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !m.res.Correct || m.res.Failed > 0 || m.res.Attempted == 0 {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d wrong=%v",
					w.name, seed, m.res.Correct, m.res.Attempted, m.res.Failed, m.rec.wrong)
			}
			for _, e := range benchmarkJSON(t).EndToEnd {
				got, ok := m.res.Metrics[e.Name]
				if !ok || got.Unit != e.Unit || !(got.Value > 0) {
					t.Errorf("%s seed %d: end-to-end %s = %+v", w.name, seed, e.Name, got)
				}
			}
			if len(m.res.Metrics) != len(benchmarkJSON(t).EndToEnd) {
				t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(m.res.Metrics), len(benchmarkJSON(t).EndToEnd))
			}

			tr, err := execute(w.name, seed, 0, true, true, t.TempDir()+"/spans.jsonl")
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
			}
			if !tr.res.Correct || tr.res.Failed > 0 {
				t.Errorf("%s seed %d traced: correct=%v failed=%d wrong=%v", w.name, seed, tr.res.Correct, tr.res.Failed, tr.rec.wrong)
			}
			if len(tr.res.Metrics) != len(perLayer) {
				t.Errorf("%s traced: %d per-layer metrics, want %d", w.name, len(tr.res.Metrics), len(perLayer))
			}
			if !(tr.res.Metrics["tracing.overhead"].Value > 0) {
				t.Errorf("%s traced: no tracing overhead", w.name)
			}
		}
	}
}

// TestDeterminism checks that two runs with the same seed count the
// same work, and that the traced run counts what the untraced run
// counts. The service workload is exempt: the actor runtime's schedule
// is not a function of the seed.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		if !w.deterministic {
			continue
		}
		a, err := execute(w.name, seeds[0], 0, false, true, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := execute(w.name, seeds[0], 0, false, true, "")
		if err != nil {
			t.Fatal(err)
		}
		sameCounts(t, w.name+" same seed", a.counts, b.counts)

		tr, err := execute(w.name, seeds[0], 0, true, true, "")
		if err != nil {
			t.Fatal(err)
		}
		// The traced run already compared its first batch with an
		// untraced one; a mismatch is an output check failure.
		if !tr.res.Correct {
			t.Errorf("%s: traced run disagrees with untraced: %v", w.name, tr.rec.wrong)
		}
		delete(a.counts, "alloc_bytes") // the traced run allocates for its spans
		sameCounts(t, w.name+" traced vs measured", a.counts, tr.counts)

		// Per-layer moves, credited by action id, add up to the
		// engine's moves.
		m := tr.res.Metrics
		var layered float64
		for _, name := range layerNames {
			layered += m[name+".moves"].Value
		}
		if layered != m["program.moves"].Value || layered == 0 {
			t.Errorf("%s: layer moves add to %v, engine moved %v", w.name, layered, m["program.moves"].Value)
		}
	}
}

// TestProbeForwardsExactInterfaces checks that the traced run's probe
// implements exactly the optional interfaces of every stack it wraps.
func TestProbeForwardsExactInterfaces(t *testing.T) {
	g := graph.Grid(3, 3)
	var stacks []program.Protocol
	for _, name := range []string{"dftno", "stno"} {
		p, _, err := newOrientation(name, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, p)
	}
	stacks = append(stacks, failover.New(g, stacks[0].(failover.Inner), 0))
	tr := newTracer()
	for _, p := range stacks {
		wrapped, err := tr.wrapProtocol(p, layerToken)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalInterfaces(wrapped), optionalInterfaces(p); got != want {
			t.Errorf("%s: probe implements %b, stack %b", p.Name(), got, want)
		}
	}
}

// TestDepthFirstNames checks the service workload's client-side check
// of the orientation payload on grid:2x3 (row-major ids 0 1 2 / 3 4 5).
func TestDepthFirstNames(t *testing.T) {
	g := graph.Grid(2, 3)
	for _, c := range []struct {
		names []int
		want  bool
	}{
		{[]int{0, 1, 2, 5, 4, 3}, true},  // visits 0 1 2 5 4 3
		{[]int{0, 1, 4, 5, 2, 3}, true},  // visits 0 1 4 5 2 3, backtracking to 4
		{[]int{0, 1, 3, 2, 4, 5}, false}, // breadth-first: 3 before 1 is done
		{[]int{0, 1, 2, 5, 4, 4}, false}, // a name twice
		{[]int{0, 1, 2, 5, 4}, false},    // a node unnamed
		{[]int{0, 1, 2, 6, 4, 3}, false}, // a name out of range
	} {
		if got := depthFirstNames(g, c.names); got != c.want {
			t.Errorf("depthFirstNames(%v) = %v, want %v", c.names, got, c.want)
		}
	}
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func benchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON checks that BENCHMARK.json names only workloads the
// benchmark runs and declares exactly the per-layer metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	b := benchmarkJSON(t)
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, p := range b.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, benchmark %s/%s", i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
