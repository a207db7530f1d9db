package program

import (
	"fmt"

	"netorient/internal/graph"
)

// Stepper is the execution-engine contract shared by the serial
// runners (System, in either scheduler mode) and the sharded parallel
// stepper (ParallelSystem). Campaign drivers — churn schedules, soak
// engines, fault injectors — program against this interface so one
// campaign definition runs under any engine; cmd/stabsim's -workers
// flag picks the engine at the CLI.
//
// The staleness contracts carry over unchanged from the concrete
// types: topology mutations flow through ApplyDelta immediately after
// the graph mutation, and any out-of-band configuration change
// (Restore, Randomize, CorruptNode) requires Invalidate before the
// next call.
type Stepper interface {
	// Protocol returns the protocol under execution.
	Protocol() Protocol
	// Step performs one engine step and reports how many moves fired.
	// The configuration is terminal when EnabledCount() == 0, not when
	// a step fires 0 moves: under ParallelSystem with Activation < 1 a
	// step can activate nobody while processors stay enabled.
	Step() (int, error)
	// ApplyDelta incorporates one topology mutation already applied to
	// the protocol's graph.
	ApplyDelta(d graph.Delta)
	// Invalidate discards cached guard/witness state after an
	// out-of-band configuration change.
	Invalidate()
	// RunUntil steps until pred holds, the configuration is terminal,
	// or maxSteps elapse.
	RunUntil(pred func() bool, maxSteps int64) (RunResult, error)
	// RunUntilLegitimate runs until the protocol's legitimacy
	// predicate holds.
	RunUntilLegitimate(maxSteps int64) (RunResult, error)
	// HoldsFor verifies closure empirically: pred must hold now and
	// after each of the next `steps` steps.
	HoldsFor(pred func() bool, steps int64) (bool, error)
	// Moves, Steps and Rounds report the engine's counters.
	Moves() int64
	Steps() int64
	Rounds() int64
	// EnabledCount returns the number of currently enabled processors;
	// Silent reports whether it is zero.
	EnabledCount() int
	Silent() bool
}

// Compile-time checks: both engines satisfy the shared contract.
var (
	_ Stepper = (*System)(nil)
	_ Stepper = (*ParallelSystem)(nil)
)

// FullScan reports whether this System is the Θ(n)-rescan differential
// oracle (NewSystemFullScan) rather than the incremental scheduler.
// Campaign drivers use it to decide whether incrementally-maintained
// witness counters are meaningful on this engine.
func (s *System) FullScan() bool { return s.fullScan }

// HoldsFor verifies closure empirically on the parallel engine: it
// steps the system extra times and reports whether the predicate held
// after every step (checked serially between parallel steps). The
// system must currently satisfy pred.
func (ps *ParallelSystem) HoldsFor(pred func() bool, steps int64) (bool, error) {
	return holdsFor(ps, pred, steps)
}

// runUntil is the run loop of every engine: step st until pred holds,
// the configuration is terminal, or maxSteps steps have been taken.
// pred is checked on the initial configuration and after every step.
//
// A 0-move step alone is not terminal: under ParallelSystem with
// Activation < 1 it can activate nobody while processors stay enabled.
// On the serial engine a 0-move step already means nothing is
// enabled, so the count is read only after one.
func runUntil(st Stepper, pred func() bool, maxSteps int64) (RunResult, error) {
	moves, steps, rounds := st.Moves(), st.Steps(), st.Rounds()
	mk := func(conv bool) RunResult {
		return RunResult{
			Converged: conv,
			Moves:     st.Moves() - moves,
			Steps:     st.Steps() - steps,
			Rounds:    st.Rounds() - rounds,
		}
	}
	if pred() {
		return mk(true), nil
	}
	for i := int64(0); i < maxSteps; i++ {
		n, err := st.Step()
		if err != nil {
			return mk(false), err
		}
		if pred() {
			return mk(true), nil
		}
		if n == 0 && st.EnabledCount() == 0 {
			return mk(false), nil
		}
	}
	return mk(false), nil
}

// holdsFor steps st up to steps times and reports whether pred, which
// must hold now, held after every step. It ends early, successfully,
// once the configuration is terminal.
func holdsFor(st Stepper, pred func() bool, steps int64) (bool, error) {
	if !pred() {
		return false, nil
	}
	for i := int64(0); i < steps; i++ {
		n, err := st.Step()
		if err != nil {
			return false, err
		}
		if !pred() {
			return false, nil
		}
		if n == 0 && st.EnabledCount() == 0 {
			return true, nil
		}
	}
	return true, nil
}

// ScriptDaemon replays a recorded move sequence, one move per step,
// verifying at selection time that each scripted move is legal — its
// processor is in the step's enabled set and the scripted action is
// among that processor's enabled actions. It is the projection half of
// the message-runtime differential check (package actor): an
// asynchronous execution projects onto a legal central-daemon
// execution exactly when its move log replays through a ScriptDaemon
// without a legality error, and the central daemon is a special case
// of the distributed daemon, so legality here is legality under the
// paper's scheduling model.
//
// A legality violation is recorded in Err and the daemon re-selects
// the scripted move anyway, so the runner surfaces a diagnosable
// failure (the guard-revalidating Execute will refuse to fire it)
// instead of a deadlock.
type ScriptDaemon struct {
	script []Move
	next   int
	sel    [1]Move
	// Err holds the first legality violation the replay hit, nil when
	// the whole script was legal so far.
	Err error
	buf []ActionID
}

// NewScriptDaemon returns a daemon that replays script in order.
func NewScriptDaemon(script []Move) *ScriptDaemon {
	return &ScriptDaemon{script: script}
}

// Name implements Daemon.
func (d *ScriptDaemon) Name() string { return "script" }

// Remaining returns how many scripted moves have not been selected yet.
func (d *ScriptDaemon) Remaining() int { return len(d.script) - d.next }

// Select implements Daemon.
func (d *ScriptDaemon) Select(set EnabledSet) []Move {
	if d.next >= len(d.script) {
		// Script exhausted but the runner asked for another step; the
		// caller drives exactly len(script) steps, so this is a usage
		// error surfaced as a legality error on a sentinel move.
		if d.Err == nil {
			d.Err = fmt.Errorf("program: script daemon exhausted after %d moves", len(d.script))
		}
		d.sel[0] = Move{}
		return d.sel[:]
	}
	mv := d.script[d.next]
	d.next++
	if d.Err == nil {
		if !set.Contains(mv.Node) {
			d.Err = fmt.Errorf("program: scripted move %d at node %d: processor not enabled", d.next-1, mv.Node)
		} else {
			// The set is ascending; binary search for the rank of
			// mv.Node to fetch its action list.
			lo, hi := 0, set.Len()
			for lo < hi {
				mid := (lo + hi) / 2
				if set.At(mid) < mv.Node {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			ok := false
			if lo < set.Len() && set.At(lo) == mv.Node {
				d.buf = set.Actions(lo, d.buf[:0])
				for _, a := range d.buf {
					if a == mv.Action {
						ok = true
						break
					}
				}
			}
			if !ok {
				d.Err = fmt.Errorf("program: scripted move %d (node %d, action %d): action not enabled", d.next-1, mv.Node, mv.Action)
			}
		}
	}
	d.sel[0] = mv
	return d.sel[:]
}
