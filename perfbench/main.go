// Command perfbench is the repository benchmark. It drives one named
// workload per execution engine through the library's public API and
// measures, from outside the program, how long the system takes to
// reach legitimacy:
//
//	stabilize  serial System, random start to legitimacy (DFTNO, STNO)
//	parallel   ParallelSystem, random start to legitimacy (STNO over BFS)
//	churn      serial System under failover, single faults to re-legitimacy
//	service    orientd on the actor runtime, admin faults and queries
//
// Usage:
//
//	perfbench --workload stabilize --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with --trace 1 a separate traced run
// reports per-layer metrics instead and writes its spans to --spans.
// The process exits non-zero when an output check fails. README.md
// describes every workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is what every workload's setup receives.
type config struct {
	seed    int64
	toy     bool    // toy sizes, for the benchmark's own tests
	tr      *tracer // nil in measured runs
	workers int     // parallel engine workers; 0 means one per CPU
}

// instance is one set-up workload.
type instance interface {
	// batch runs one pass over the workload's seeded schedule,
	// recording every timed operation and output check in rec.
	batch(rec *recorder) error
	// counts returns the engine's deterministic counters so far.
	counts() map[string]int64
	// layers sets the workload's own per-layer metrics after a traced
	// run.
	layers(m metrics, t *traceRun) error
	close()
}

type workload struct {
	name  string
	setup func(cfg config) (instance, error)
	// deterministic is false when the engine's schedule is not a
	// function of the seed, which exempts the workload's counts from
	// the determinism checks.
	deterministic bool
}

var workloads = []workload{
	{name: "stabilize", setup: setupStabilize, deterministic: true},
	{name: "parallel", setup: setupParallel, deterministic: true},
	{name: "churn", setup: setupChurn, deterministic: true},
	{name: "service", setup: setupService, deterministic: false},
}

// setupReps is how many times a measured run sets its workload up.
// The set-ups are spread evenly over the run, between timed batches,
// so that they sample the same stretch of machine time as the timed
// operations; setup_s is their median.
const setupReps = 21

// recorder collects what one run measures.
type recorder struct {
	ops       []float64            // time to legitimacy per timed operation, ms
	kinds     map[string][]float64 // the same, by fault kind, ms
	verbs     map[string][]float64 // admin verb latency, µs
	attempted int
	failed    int
	wrong     []string // output checks that failed
}

func newRecorder() *recorder {
	return &recorder{kinds: map[string][]float64{}, verbs: map[string][]float64{}}
}

// op records one timed operation of the given kind; converged is false
// when it ran out of budget.
func (r *recorder) op(kind string, ms float64, converged bool) {
	r.attempted++
	if !converged {
		r.failed++
		return
	}
	r.ops = append(r.ops, ms)
	if kind != "" {
		r.kinds[kind] = append(r.kinds[kind], ms)
	}
}

// check records an output check made outside any timed span.
func (r *recorder) check(ok bool, format string, a ...any) {
	if !ok {
		r.wrong = append(r.wrong, fmt.Sprintf(format, a...))
	}
}

// run is one invocation's outcome, with everything the tests inspect.
type run struct {
	res     result
	counts  map[string]int64
	machine map[string]any
	rec     *recorder
	selfMs  map[string]float64 // traced runs: self time per span kind
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (%s)", name, strings.Join(names, "|"))
}

// setupTimed sets w up once and returns the instance and the seconds it
// took, starting from a collected heap.
func setupTimed(w workload, cfg config) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := w.setup(cfg)
	return inst, time.Since(t0).Seconds(), err
}

// measure is a --trace 0 run: set up, run batches for the given
// duration with setupReps-1 further set-ups spread among them, and
// report the end-to-end metrics.
func measure(w workload, seed int64, seconds float64, toy bool) (*run, error) {
	cfg := config{seed: seed, toy: toy}
	inst, s, err := setupTimed(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	setups := []float64{s}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) / 1e6

	// The first batch counts work and allocation; the batches after it
	// are timed.
	rec := newRecorder()
	alloc, err := countingBatch(inst, rec)
	if err != nil {
		return nil, err
	}
	r := &run{counts: inst.counts(), rec: rec}
	if w.deterministic {
		r.counts["alloc_bytes"] = int64(alloc)
	}
	counted := len(rec.ops)
	runtime.ReadMemStats(&ms)
	gc0, alloc0 := ms.NumGC, ms.TotalAlloc
	// Set-ups between batches are not part of the timed duration, and
	// what they allocate is not part of alloc_mb.
	var setupWall time.Duration
	var setupAlloc uint64
	start := time.Now()
	batches := 0
	for {
		elapsed := (time.Since(start) - setupWall).Seconds()
		if len(setups) < setupReps && elapsed >= seconds*float64(len(setups))/setupReps {
			t0 := time.Now()
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			extra, s, err := setupTimed(w, cfg)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			extra.close()
			runtime.ReadMemStats(&ms)
			setupAlloc += ms.TotalAlloc - a0
			setups = append(setups, s)
			setupWall += time.Since(t0)
			continue
		}
		if batches > 0 && elapsed >= seconds {
			break
		}
		if err := inst.batch(rec); err != nil {
			return nil, err
		}
		batches++
	}
	runtime.ReadMemStats(&ms)
	timed := rec.ops[counted:]

	m := metrics{}
	m.set("setup_s", quantile(setups, 0.5), "s")
	m.set("converge_ms_p50", quantile(timed, 0.5), "ms")
	// Per batch, over every timed batch: one batch's allocation varies
	// with the faults its seed draws.
	m.set("alloc_mb", float64(ms.TotalAlloc-alloc0-setupAlloc)/float64(batches)/1e6, "MB")
	m.set("heap_mb", heap, "MB")
	r.res = result{Attempted: rec.attempted, Failed: rec.failed, Metrics: m}
	r.counts["samples"] = int64(len(timed))
	r.counts["gc_cycles"] = int64(ms.NumGC - gc0)
	return r, nil
}

// traced is a --trace 1 run. The first batch runs once on an untraced
// instance and once on a traced one set up the same way; their
// deterministic counts must agree, and the ratio of their total times
// is the tracing overhead. The traced instance then runs for the given
// duration and reports per-layer metrics.
func traced(w workload, seed int64, seconds float64, toy bool, spans string) (*run, error) {
	cfg := config{seed: seed, toy: toy}
	plain, _, err := setupTimed(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	urec := newRecorder()
	allocBytes, err := countingBatch(plain, urec)
	ucounts := plain.counts()
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	tcfg := cfg
	tcfg.tr = tr
	inst, _, err := setupTimed(w, tcfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	// Probe counts and spans start with the first batch, not with set
	// up.
	tr.reset()
	root := tr.begin("workload", w.name)
	c0 := inst.counts()
	rec := newRecorder()
	if _, err := countingBatch(inst, rec); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	tcounts := inst.counts()
	t := &traceRun{cfg: cfg, tr: tr, rec: rec, first: map[string]int64{}, plainOps: urec.ops}
	for k, v := range tcounts {
		t.first[k] = v - c0[k]
	}
	var firstMoves [numLayers]int64
	for l := range firstMoves {
		firstMoves[l] = tr.proto.moves[l].Load()
	}
	firstEnabled := tr.proto.enabled.calls.Load()
	r := &run{counts: tcounts, rec: rec}
	overhead := sum(rec.ops) / sum(urec.ops)
	if w.deterministic {
		for k, v := range ucounts {
			rec.check(tcounts[k] == v, "traced run counted %s=%d, untraced %d", k, tcounts[k], v)
		}
	}
	for time.Since(start).Seconds() < seconds {
		if err := inst.batch(rec); err != nil {
			return nil, err
		}
	}
	tr.end(root)
	runtime.ReadMemStats(&ms)
	t.steps = inst.counts()["steps"] - c0["steps"]

	m := metrics{}
	for _, p := range perLayer {
		m.set(p.name, 0, p.unit)
	}
	t.protocolLayers(m, firstMoves, firstEnabled)
	if moves := t.first["moves"]; moves > 0 {
		m.set("runtime.alloc_per_move", float64(allocBytes)/float64(moves), "B")
	}
	m.set("runtime.gc_cycles", float64(ms.NumGC-gc0), "count")
	m.set("tracing.overhead", overhead, "x")
	m.set("converge_ms_p90", quantile(rec.ops, 0.9), "ms")
	if err := inst.layers(m, t); err != nil {
		return nil, err
	}
	if err := checkLayers(m); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.res = result{Attempted: rec.attempted, Failed: rec.failed, Metrics: m}
	r.counts["samples"] = int64(len(rec.ops))
	r.counts["spans"] = int64(len(tr.spans))
	r.selfMs = map[string]float64{}
	for k, st := range tr.selfTimes() {
		r.selfMs[k] = float64(st.selfNs) / 1e6
	}
	if spans != "" {
		if err := tr.write(spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r, nil
}

// countingBatch runs one batch with the collector off, so that the
// bytes it allocates do not depend on when a collection empties the
// program's sync.Pools, and returns them.
func countingBatch(inst instance, rec *recorder) (uint64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	err := inst.batch(rec)
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - a0, err
}

// machine describes where the numbers were taken.
func machine() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        model,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// execute runs one invocation and fills in its verdict.
func execute(name string, seed int64, seconds float64, trace, toy bool, spans string) (*run, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	var r *run
	if trace {
		r, err = traced(w, seed, seconds, toy, spans)
	} else {
		r, err = measure(w, seed, seconds, toy)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.machine = machine()
	r.res.Correct = len(r.rec.wrong) == 0
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: stabilize|parallel|churn|service")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long to measure, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *name, *seed)
	}
	r, err := execute(*name, *seed, *seconds, *traceFlag == 1, false, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, w := range r.rec.wrong {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %s\n", w)
	}
	for _, k := range sortedKeys(r.rec.kinds) {
		xs := r.rec.kinds[k]
		fmt.Fprintf(os.Stderr, "perfbench: %-16s n=%-5d p50=%.3fms p90=%.3fms\n", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
	}
	enc := json.NewEncoder(os.Stdout)
	lines := []map[string]any{{"machine": r.machine}, {"counts": r.counts}}
	if r.selfMs != nil {
		lines = append(lines, map[string]any{"self_ms": r.selfMs})
	}
	for _, line := range lines {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := enc.Encode(r.res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.res.Correct || r.res.Failed > 0 {
		os.Exit(1)
	}
}
