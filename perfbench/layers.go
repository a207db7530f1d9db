package main

import (
	"fmt"
	"strings"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric of a layer a workload does not run reads 0 there;
// README.md says which workload moves which metric.
var perLayer = []struct{ name, unit string }{
	{"token.moves", "count"},
	{"spantree.moves", "count"},
	{"core.moves", "count"},
	{"failover.moves", "count"},
	{"token.execute_ns", "ns"},
	{"spantree.execute_ns", "ns"},
	{"core.execute_ns", "ns"},
	{"failover.execute_ns", "ns"},
	{"program.enabled_calls", "count"},
	{"daemon.select_ns", "ns"},
	{"program.steps", "count"},
	{"program.moves", "count"},
	{"program.step_ns", "ns"},
	{"program.invalidate_us", "us"},
	{"program.apply_delta_us", "us"},
	{"program.parallel.step_ms", "ms"},
	{"program.parallel.legit_check_share", "%"},
	{"program.parallel.work_units", "count"},
	{"program.parallel.span_units", "count"},
	{"program.parallel.boundary_span_units", "count"},
	{"program.parallel.counted_speedup", "x"},
	{"program.parallel.wall_speedup", "x"},
	{"program.parallel.frontier", "count"},
	{"program.parallel.wave_sets", "count"},
	{"program.parallel.shard_imbalance", "x"},
	{"program.parallel.reshards", "count"},
	{"graph.mutate_us", "us"},
	{"graph.comp_relabels", "count"},
	{"failover.root_changes", "count"},
	{"failover.leader_flaps", "count"},
	{"churn.corrupt.recover_ms_p50", "ms"},
	{"churn.flap.recover_ms_p50", "ms"},
	{"churn.crash.recover_ms_p50", "ms"},
	{"churn.partition.recover_ms_p50", "ms"},
	{"churn.skipped", "count"},
	{"actor.msgs_per_move", "ratio"},
	{"actor.requests_per_move", "ratio"},
	{"actor.drop_full_ratio", "ratio"},
	{"actor.mailbox_peak", "count"},
	{"orientd.status_us_p50", "us"},
	{"orientd.status_us_p99", "us"},
	{"orientd.legitimacy_us_p50", "us"},
	{"orientd.legitimacy_us_p99", "us"},
	{"orientd.orientation_us_p50", "us"},
	{"orientd.orientation_us_p99", "us"},
	{"orientd.metrics_us_p50", "us"},
	{"orientd.metrics_us_p99", "us"},
	{"orientd.corrupt_us_p50", "us"},
	{"orientd.corrupt_us_p99", "us"},
	{"orientd.flap_us_p50", "us"},
	{"orientd.flap_us_p99", "us"},
	{"orientd.cut_us_p50", "us"},
	{"orientd.cut_us_p99", "us"},
	{"orientd.heal_us_p50", "us"},
	{"orientd.heal_us_p99", "us"},
	{"orientd.crash-root_us_p50", "us"},
	{"orientd.crash-root_us_p99", "us"},
	{"orientd.revive_us_p50", "us"},
	{"orientd.revive_us_p99", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_per_move", "B"},
	{"tracing.overhead", "x"},
	{"converge_ms_p90", "ms"},
}

// traceRun is what a traced run hands a workload's layers method.
type traceRun struct {
	cfg      config // the run's seed and size, without the tracer
	tr       *tracer
	rec      *recorder
	first    map[string]int64 // engine counts the traced first batch added
	plainOps []float64        // the untraced first batch's times, ms
	steps    int64            // engine steps over every traced batch
}

// spanMeanUs is the mean duration of the given spans, in µs.
func (t *traceRun) spanMeanUs(layer, name string) float64 {
	ns, n := t.tr.spanTotal(layer, name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// stepNs is the serial engine's time per step inside
// RunUntilLegitimate, protocol and daemon calls included. Subtracting
// the probes' per-call times would not give the engine's self time:
// timed one by one, calls of about 100 ns lose the overlap they have
// with the engine's own work, and their sum exceeds the step.
func (t *traceRun) stepNs() float64 {
	if t.steps == 0 {
		return 0
	}
	run, _ := t.tr.spanTotal("program", "run_until_legitimate")
	return float64(run) / float64(t.steps)
}

// protocolLayers fills the metrics every stack-driving workload shares:
// moves and sampled Execute time per protocol layer, guard evaluations,
// daemon and engine-call times.
func (t *traceRun) protocolLayers(m metrics, firstMoves [numLayers]int64, firstEnabled int64) {
	for l := 0; l < numLayers; l++ {
		m.set(layerNames[l]+".moves", float64(firstMoves[l]), "count")
		m.set(layerNames[l]+".execute_ns", t.tr.proto.exec[l].meanNs(), "ns")
	}
	m.set("program.enabled_calls", float64(firstEnabled), "count")
	m.set("daemon.select_ns", t.tr.sel.meanNs(), "ns")
	m.set("program.steps", float64(t.first["steps"]), "count")
	m.set("program.moves", float64(t.first["moves"]), "count")
	m.set("program.invalidate_us", t.spanMeanUs("program", "invalidate"), "us")
	m.set("program.apply_delta_us", t.spanMeanUs("program", "apply_delta"), "us")
}

var perLayerIndex = func() map[string]int {
	idx := make(map[string]int, len(perLayer))
	for i, p := range perLayer {
		idx[p.name] = i
	}
	return idx
}()

// checkLayers reports a metric that is not declared in perLayer or
// carries another unit than declared there.
func checkLayers(m metrics) error {
	var bad []string
	for name, v := range m {
		i, ok := perLayerIndex[name]
		if !ok || perLayer[i].unit != v.Unit {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("undeclared per-layer metrics or units: %s", strings.Join(bad, ", "))
	}
	return nil
}
