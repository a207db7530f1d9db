// Package fault runs transient-fault campaigns against
// self-stabilizing protocols: starting from a legitimate
// configuration, corrupt the local state of k random processors, then
// measure the moves and rounds until the system is legitimate again —
// the operational content of Theorems 3.2.3 and 4.2.3.
//
// Campaigns run on the incremental scheduler by default, so for
// protocols with a program.Witness the per-step legitimacy decision
// inside each recovery is O(1) (the witness re-arms from scratch on
// the fresh System each trial builds after corruption); recovery
// measurements count moves and rounds, which are
// scheduler-independent. Setting Workers > 1 runs each trial on the
// sharded parallel stepper instead.
package fault

import (
	"errors"
	"fmt"
	"math/rand"

	"netorient/internal/churn"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// Target is the protocol contract a campaign needs.
type Target interface {
	program.Protocol
	program.Legitimacy
	program.NodeCorruptor
}

// Campaign describes a fault-injection experiment.
type Campaign struct {
	// Faults is the number of distinct processors corrupted per trial
	// (clamped to n).
	Faults int
	// Trials is the number of corrupt-and-recover repetitions.
	Trials int
	// MaxSteps bounds each recovery (and the initial stabilization).
	MaxSteps int64
	// Seed drives node selection, corruption values and daemons.
	Seed int64
	// NewDaemon builds the daemon for a trial; nil is an error (the
	// caller chooses the scheduling model explicitly).
	NewDaemon func(trial int) program.Daemon
	// Workers > 1 runs each trial on the sharded parallel stepper with
	// that many workers instead of the serial scheduler; the daemon
	// factory is then only used as the explicit opt-in marker (the
	// parallel stepper schedules its own maximal distributed daemon).
	Workers int
}

// Outcome aggregates a campaign's results.
type Outcome struct {
	Trials    int
	Recovered int
	// RecoveryMoves and RecoveryRounds hold one entry per recovered
	// trial.
	RecoveryMoves  []int64
	RecoveryRounds []int64
}

// Errors.
var (
	ErrNoDaemonFactory = errors.New("fault: campaign needs a NewDaemon factory")
)

// Churn is the topology-fault adversary: where Campaign hits processor
// *state*, Churn hits the *network itself*. Each trial starts from a
// legitimate configuration, takes Burst elements down (edge flaps or a
// node crash, chosen seeded and connectivity-preserving), optionally
// corrupts CorruptFaults processors on top — the combined
// state+topology fault — lets the damaged system run DownFor steps,
// restores the elements, and measures moves/rounds until legitimacy
// returns. Topology events flow through System.ApplyDelta (the
// localized-invalidation path); state corruption uses the
// System.Invalidate staleness contract, so the two escape hatches are
// exercised composed, exactly as a real deployment would see them.
type Churn struct {
	// Trials is the number of damage-and-recover repetitions.
	Trials int
	// Burst is the number of elements taken down per trial (≥ 1).
	Burst int
	// Kind selects the element type (churn.EdgeFlap or
	// churn.NodeCrash; a NodeCrash burst is capped at one node down at
	// a time, the rest become flaps). With AllowDisconnect the
	// disconnecting kinds churn.BridgeCut, churn.IslandCrash and
	// churn.Partition are also accepted (one bridge cut / island crash /
	// partition per trial, the rest of the burst becomes flaps).
	Kind churn.Kind
	// AllowDisconnect lifts connectivity preservation: flap and crash
	// picks skip the connectivity check, and the disconnecting kinds
	// become available. Protocol legitimacy is per component, so the
	// damaged system still converges while split.
	AllowDisconnect bool
	// CrashRoot aims the per-trial churn.NodeCrash at the fixed root
	// itself instead of a random non-root node. Only meaningful when
	// the target carries a root-failover wrapper (internal/failover):
	// without one the rooted predicates cannot re-converge while the
	// root is down, and the trial burns its whole step budget.
	// Requires AllowDisconnect when the root is a cut vertex.
	CrashRoot bool
	// PartitionSize bounds the cut-off region for churn.Partition
	// (default n/4, min 1).
	PartitionSize int
	// CorruptFaults additionally corrupts this many random processors
	// while the elements are down (0 = topology-only).
	CorruptFaults int
	// CorruptOrphans aims the corruption at nodes whose component lost
	// the root during the down phase — the worst case for partition
	// tolerance: the orphan region must re-quiesce with no root to
	// anchor it, and the heal must absorb whatever the corruption left.
	// When the take-down islanded nobody, the trial corrupts nobody.
	CorruptOrphans bool
	// CorruptAfterRestore flips the Invalidate/ApplyDelta order: by
	// default corruption (System.Invalidate) lands while the elements
	// are down and the heal's ApplyDelta follows; with this set the
	// heal lands first and the same targets — chosen while the
	// component was split — are corrupted afterwards. Both orders must
	// recover; the composed-escape-hatch tests drive each.
	CorruptAfterRestore bool
	// DownFor is how many steps the elements stay down.
	DownFor int64
	// MaxSteps bounds each recovery and the initial stabilization.
	MaxSteps int64
	// Seed drives element selection, corruption and daemons.
	Seed int64
	// NewDaemon builds the daemon for a trial; nil is an error.
	NewDaemon func(trial int) program.Daemon
	// Workers > 1 runs each trial on the sharded parallel stepper (see
	// Campaign.Workers).
	Workers int
}

// newEngine builds one trial's execution engine: the serial
// incremental scheduler driving d, or — when workers > 1 — the
// sharded parallel stepper (which ignores d and runs its own maximal
// distributed daemon over seeded shards).
func newEngine(t Target, workers int, seed int64, d program.Daemon) program.Stepper {
	if workers > 1 {
		return program.NewParallelSystem(t, program.ParallelConfig{Workers: workers, Seed: seed})
	}
	return program.NewSystem(t, d)
}

// Run executes the churn campaign on t over g (which must be t's
// graph; the campaign mutates it and restores it every trial).
func (c Churn) Run(t Target, root graph.NodeID) (Outcome, error) {
	if c.NewDaemon == nil {
		return Outcome{}, ErrNoDaemonFactory
	}
	g := t.Graph()
	rng := rand.New(rand.NewSource(c.Seed))
	burst := c.Burst
	if burst < 1 {
		burst = 1
	}
	out := Outcome{Trials: c.Trials}
	sys := newEngine(t, c.Workers, c.Seed, c.NewDaemon(-1))
	if res, err := sys.RunUntilLegitimate(c.MaxSteps); err != nil {
		return out, err
	} else if !res.Converged {
		return out, fmt.Errorf("fault: protocol %q did not stabilize before churn", t.Name())
	}

	for trial := 0; trial < c.Trials; trial++ {
		sys = newEngine(t, c.Workers, c.Seed+int64(trial)+1, c.NewDaemon(trial))
		apply := func(d graph.Delta) { sys.ApplyDelta(d) }
		var restores []func() error
		specialDown := false // the per-trial crash/bridge/island/partition fired
		for b := 0; b < burst; b++ {
			var restore func() error
			var err error
			if !specialDown && c.special() {
				if c.Kind == churn.NodeCrash && c.CrashRoot && g.Alive(root) {
					restore, err = churn.CrashDown(g, root, apply)
				} else {
					restore, err = churn.TakeDown(g, root, c.Kind, c.AllowDisconnect, c.PartitionSize, rng, apply)
					if errors.Is(err, churn.ErrNoCandidate) {
						err = nil // falls back to a flap
					}
				}
				specialDown = restore != nil
			}
			if err != nil {
				return out, err
			}
			if restore == nil {
				restore, err = churn.TakeDown(g, root, churn.EdgeFlap, c.AllowDisconnect, 0, rng, apply)
				if errors.Is(err, churn.ErrNoCandidate) {
					break // tree-like remnant: nothing else can flap
				}
				if err != nil {
					return out, err
				}
			}
			restores = append(restores, restore)
		}
		// Corruption targets are chosen now — while the topology damage
		// is in effect — so CorruptOrphans can see which components
		// lost the root; the corruption itself lands before or after
		// the heal depending on CorruptAfterRestore.
		targets := c.corruptionTargets(g, root, rng)
		if len(targets) > 0 && !c.CorruptAfterRestore {
			for _, v := range targets {
				t.CorruptNode(v, rng)
			}
			sys.Invalidate()
		}
		if _, err := sys.RunUntil(func() bool { return false }, c.DownFor); err != nil {
			return out, err
		}
		for i := len(restores) - 1; i >= 0; i-- {
			if err := restores[i](); err != nil {
				return out, err
			}
		}
		if len(targets) > 0 && c.CorruptAfterRestore {
			for _, v := range targets {
				t.CorruptNode(v, rng)
			}
			sys.Invalidate()
		}
		res, err := sys.RunUntilLegitimate(c.MaxSteps)
		if err != nil {
			return out, err
		}
		if !res.Converged {
			if res2, err2 := sys.RunUntilLegitimate(4 * c.MaxSteps); err2 != nil || !res2.Converged {
				return out, fmt.Errorf("fault: churn trial %d never recovered", trial)
			}
			continue
		}
		out.Recovered++
		out.RecoveryMoves = append(out.RecoveryMoves, res.Moves)
		out.RecoveryRounds = append(out.RecoveryRounds, res.Rounds)
	}
	return out, nil
}

// special reports whether c.Kind takes a special element down once per
// trial: a node crash, or with AllowDisconnect a disconnecting kind.
// Every other take-down, and one whose picker finds nothing, is a flap.
func (c Churn) special() bool {
	switch c.Kind {
	case churn.NodeCrash:
		return true
	case churn.BridgeCut, churn.IslandCrash, churn.Partition:
		return c.AllowDisconnect
	}
	return false
}

// corruptionTargets selects the processors a churn trial corrupts,
// drawn while the take-down is in effect. With CorruptOrphans only
// live nodes in components without the root qualify (possibly fewer
// than CorruptFaults, zero when nothing was islanded); otherwise any
// live node does. Either targeting mode advances the rng by exactly
// one Perm, so the seeded schedule does not depend on it.
func (c Churn) corruptionTargets(g *graph.Graph, root graph.NodeID, rng *rand.Rand) []graph.NodeID {
	if c.CorruptFaults <= 0 {
		return nil
	}
	perm := rng.Perm(g.N())
	k := c.CorruptFaults
	if k > g.N() {
		k = g.N()
	}
	rootComp := -1
	if g.Alive(root) {
		rootComp = g.ComponentOf(root)
	}
	targets := make([]graph.NodeID, 0, k)
	for _, v := range perm {
		if len(targets) == k {
			break
		}
		id := graph.NodeID(v)
		if !g.Alive(id) {
			continue
		}
		if c.CorruptOrphans && g.ComponentOf(id) == rootComp {
			continue
		}
		targets = append(targets, id)
	}
	return targets
}

// Run executes the campaign on t. The protocol is first driven to a
// legitimate configuration; each trial then corrupts Faults distinct
// random processors and runs until legitimacy returns.
func (c Campaign) Run(t Target) (Outcome, error) {
	if c.NewDaemon == nil {
		return Outcome{}, ErrNoDaemonFactory
	}
	rng := rand.New(rand.NewSource(c.Seed))
	n := t.Graph().N()
	faults := c.Faults
	if faults > n {
		faults = n
	}
	if faults < 1 {
		faults = 1
	}

	out := Outcome{Trials: c.Trials}
	sys := newEngine(t, c.Workers, c.Seed, c.NewDaemon(-1))
	if res, err := sys.RunUntilLegitimate(c.MaxSteps); err != nil {
		return out, err
	} else if !res.Converged {
		return out, fmt.Errorf("fault: protocol %q did not stabilize before injection", t.Name())
	}

	for trial := 0; trial < c.Trials; trial++ {
		for _, v := range rng.Perm(n)[:faults] {
			t.CorruptNode(graph.NodeID(v), rng)
		}
		sys = newEngine(t, c.Workers, c.Seed+int64(trial)+1, c.NewDaemon(trial))
		res, err := sys.RunUntilLegitimate(c.MaxSteps)
		if err != nil {
			return out, err
		}
		if !res.Converged {
			// Leave the system unstabilized no longer: restore a
			// legitimate base for the next trial.
			if res2, err2 := sys.RunUntilLegitimate(4 * c.MaxSteps); err2 != nil || !res2.Converged {
				return out, fmt.Errorf("fault: trial %d never recovered", trial)
			}
			continue
		}
		out.Recovered++
		out.RecoveryMoves = append(out.RecoveryMoves, res.Moves)
		out.RecoveryRounds = append(out.RecoveryRounds, res.Rounds)
	}
	return out, nil
}
