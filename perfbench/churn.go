package main

import (
	"fmt"
	"math/rand"
	"time"

	"netorient/internal/churn"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// churnEvents is one batch of the churn workload. Recovery times fall
// into modes by kind: a corruption costs a few ms, a crash tens and a
// partition over a hundred, and a flap costs either almost nothing or
// as much as a crash. Twelve corruptions in fifteen events put the
// median near the centre of the corruption mode, at about its 58th
// percentile, where it moves less than in the mode's upper tail.
var churnEvents = []string{
	"corrupt", "corrupt", "corrupt", "corrupt", "partition",
	"corrupt", "corrupt", "corrupt", "corrupt", "crash",
	"corrupt", "corrupt", "corrupt", "corrupt", "flap",
}

// faultLoad is the churn workload: DFTNO over a token circulator,
// wrapped in the failover layer, on the serial engine. It is stabilized
// during setup, and every timed operation is one fault and its
// recovery, each starting where the last one left the system.
type faultLoad struct {
	g       *graph.Graph
	fp      *failover.Protocol
	sys     *program.System
	rng     *rand.Rand
	tr      *tracer
	budget  int64
	cutSize int
	skipped int64
}

const (
	churnRoot = graph.NodeID(0)
	// warmCorruptions are repaired during setup: a configuration just
	// reached from a random one still holds random values in variables
	// legitimacy does not constrain, and its first corruptions take far
	// longer to repair than later ones.
	warmCorruptions = 8
)

func setupChurn(cfg config) (instance, error) {
	side, cut := 32, 24
	if cfg.toy {
		side, cut = 6, 4
	}
	g := graph.Grid(side, side)
	inner, _, err := newOrientation("dftno", g, churnRoot)
	if err != nil {
		return nil, err
	}
	fp := failover.New(g, inner.(failover.Inner), churnRoot)
	driven, err := cfg.tr.wrapProtocol(fp, layerToken)
	if err != nil {
		return nil, err
	}
	// Set-up draws from setupSeed; the timed faults and the daemon then
	// restart on the workload seed.
	d := newCentralDaemon(setupSeed)
	w := &faultLoad{
		g:       g,
		fp:      fp,
		sys:     program.NewSystem(driven, cfg.tr.wrapDaemon(d)),
		rng:     rand.New(rand.NewSource(setupSeed)),
		tr:      cfg.tr,
		budget:  int64(5000 * (g.N() + g.M())),
		cutSize: cut,
	}
	fp.Randomize(w.rng)
	ok, err := w.converge("setup")
	if err != nil {
		return nil, err
	}
	if !ok || !fp.Legitimate() {
		return nil, fmt.Errorf("churn: initial stabilization did not converge")
	}
	warm := newRecorder()
	for i := 0; i < warmCorruptions; i++ {
		if err := w.event("corrupt", warm); err != nil {
			return nil, err
		}
	}
	if warm.failed > 0 || len(warm.wrong) > 0 {
		return nil, fmt.Errorf("churn: a warm-up corruption did not recover")
	}
	d.reseed(cfg.seed)
	w.rng = rand.New(rand.NewSource(cfg.seed))
	return w, nil
}

// apply feeds one graph delta to the engine.
func (w *faultLoad) apply(d graph.Delta) {
	sp := w.tr.begin("program", "apply_delta")
	w.sys.ApplyDelta(d)
	w.tr.end(sp)
}

// mutate runs one churn down or restore closure. In a traced run its
// span's self time, which excludes the apply_delta spans inside it, is
// the graph layer's.
func (w *faultLoad) mutate(f func() error) error {
	sp := w.tr.begin("graph", "mutate")
	err := f()
	w.tr.end(sp)
	return err
}

// converge runs the engine until the stack is legitimate.
func (w *faultLoad) converge(kind string) (bool, error) {
	sp := w.tr.begin("program", "run_until_legitimate")
	res, err := w.sys.RunUntilLegitimate(w.budget)
	w.tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("churn %s: %w", kind, err)
	}
	return res.Converged, nil
}

// check confirms the engine's verdict with the full O(n) predicate,
// outside any timed span.
func (w *faultLoad) check(kind string, converged bool, rec *recorder) {
	if converged {
		sp := w.tr.begin("check", "legitimate")
		rec.check(w.fp.Legitimate(), "churn %s: engine reported legitimacy, Legitimate() disagrees", kind)
		w.tr.end(sp)
	}
}

func (w *faultLoad) batch(rec *recorder) error {
	for _, kind := range churnEvents {
		ev := w.tr.begin("workload", "event")
		err := w.event(kind, rec)
		w.tr.end(ev)
		if err != nil {
			return err
		}
	}
	return nil
}

// event injects one fault and measures the time to legitimacy: for a
// corruption from the fault to legitimacy, for a topology fault the
// down phase (mutation and convergence) plus the restore phase.
func (w *faultLoad) event(kind string, rec *recorder) error {
	var down func(apply func(graph.Delta)) (func() error, error)
	switch kind {
	case "corrupt":
		t0 := time.Now()
		v := graph.NodeID(w.rng.Intn(w.g.N()))
		w.fp.CorruptNode(v, w.rng)
		sp := w.tr.begin("program", "invalidate")
		w.sys.Invalidate()
		w.tr.end(sp)
		ok, err := w.converge(kind)
		if err != nil {
			return err
		}
		rec.op(kind, float64(time.Since(t0).Nanoseconds())/1e6, ok)
		w.check(kind, ok, rec)
		return nil
	case "flap":
		u, v, ok := churn.PickFlapEdge(w.g, w.rng)
		if !ok {
			w.skipped++
			return nil
		}
		down = func(apply func(graph.Delta)) (func() error, error) { return churn.FlapDown(w.g, u, v, apply) }
	case "crash":
		v, ok := churn.PickCrashNode(w.g, churnRoot, w.rng)
		if !ok {
			w.skipped++
			return nil
		}
		down = func(apply func(graph.Delta)) (func() error, error) { return churn.CrashDown(w.g, v, apply) }
	case "partition":
		cut, ok := churn.PickPartitionCut(w.g, churnRoot, w.cutSize, w.rng)
		if !ok {
			w.skipped++
			return nil
		}
		down = func(apply func(graph.Delta)) (func() error, error) { return churn.CutDown(w.g, cut, apply) }
	default:
		return fmt.Errorf("churn: unknown event kind %q", kind)
	}

	var restore func() error
	t0 := time.Now()
	if err := w.mutate(func() (err error) { restore, err = down(w.apply); return err }); err != nil {
		return fmt.Errorf("churn %s down: %w", kind, err)
	}
	ok1, err := w.converge(kind)
	if err != nil {
		return err
	}
	total := time.Since(t0)
	w.check(kind, ok1, rec)
	t0 = time.Now()
	if err := w.mutate(restore); err != nil {
		return fmt.Errorf("churn %s restore: %w", kind, err)
	}
	ok2, err := w.converge(kind)
	if err != nil {
		return err
	}
	total += time.Since(t0)
	rec.op(kind, float64(total.Nanoseconds())/1e6, ok1 && ok2)
	w.check(kind, ok2, rec)
	return nil
}

func (w *faultLoad) counts() map[string]int64 {
	return map[string]int64{
		"moves":         w.sys.Moves(),
		"steps":         w.sys.Steps(),
		"rounds":        w.sys.Rounds(),
		"comp_relabels": int64(w.g.CompVersion()),
		"root_changes":  int64(w.fp.RootsVersion()),
		"leader_flaps":  w.fp.LeaderFlaps,
		"skipped":       w.skipped,
	}
}

func (w *faultLoad) layers(m metrics, t *traceRun) error {
	m.set("program.step_ns", t.stepNs(), "ns")
	if st := t.tr.selfTimes()["graph.mutate"]; st != nil {
		m.set("graph.mutate_us", float64(st.selfNs)/float64(st.calls)/1e3, "us")
	}
	m.set("graph.comp_relabels", float64(t.first["comp_relabels"]), "count")
	m.set("failover.root_changes", float64(t.first["root_changes"]), "count")
	m.set("failover.leader_flaps", float64(t.first["leader_flaps"]), "count")
	m.set("churn.skipped", float64(t.first["skipped"]), "count")
	for kind, xs := range t.rec.kinds {
		m.set("churn."+kind+".recover_ms_p50", quantile(xs, 0.5), "ms")
	}
	return nil
}

func (w *faultLoad) close() {}
