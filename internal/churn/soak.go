package churn

import (
	"fmt"
	"math/rand"
	"time"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// This file implements the long-lived multi-partition soak engine.
// Where Runner.Run drives one fault kind per event and expects the
// graph to reconnect, Soak layers faults: partition cuts overlap (up
// to MaxCuts outstanding at once), heals are partial (one cut at a
// time, in a seeded order, while others stay open), the fixed root
// itself crashes and revives, and LeaveSplit cuts are never healed at
// all — the run must end converged with components that never
// reunite. It therefore requires a protocol with root failover: every
// orphan component must detect its disconnection and re-anchor at an
// acting root, which is exactly the Failover surface below.
//
// After every mutation the engine measures detection latency (steps
// until each component's Orphaned verdicts all match OrphanTruth),
// settles the system, and checks the soak invariants:
//
//   - detection converged and then *keeps holding* for SettleHold
//     steps (no false-orphan flaps after detection settles);
//   - exactly one effective root per live component, and the fixed
//     root — when alive — is its component's root (no stuck acting
//     roots after a heal or revive);
//   - the incremental witness verdict equals the O(n) Legitimate()
//     scan at every settle point.
//
// Violations are collected, not fatal: a soak reports everything it
// saw so cmd/stabsim can exit non-zero with the full list.

// Failover is the introspection surface the soak engine needs from a
// disconnection-detection/root-failover wrapper. *failover.Protocol
// satisfies it; the engine only assumes this interface so alternative
// wrappers can be soaked too.
type Failover interface {
	program.Legitimacy
	program.RootAuthority
	Orphaned(v graph.NodeID) bool
	OrphanTruth(v graph.NodeID) bool
	DetectionAccurate() bool
	ActingRoots() []graph.NodeID
	FlapCount(v graph.NodeID) int64
}

// SoakConfig parameterises a soak run. Zero values select defaults.
type SoakConfig struct {
	// Seed drives every random choice; equal seeds replay the run.
	Seed int64
	// Phases is the number of mutation phases before the final heal
	// sequence (default 12).
	Phases int
	// StepBudget bounds each phase's detection loop and settle run
	// separately (default 20000·(n+m)).
	StepBudget int64
	// WallBudget bounds the whole run's wall-clock time; 0 means
	// unbounded. When exceeded, remaining mutation phases are skipped
	// (Truncated is set) but the final heal sequence still runs.
	WallBudget time.Duration
	// SettleHold is how many steps DetectionAccurate must keep holding
	// after each settle (default 2n).
	SettleHold int64
	// MaxCuts caps how many partition cuts may be outstanding at once
	// (default 3).
	MaxCuts int
	// LeaveSplit is how many cuts the final heal sequence leaves open
	// forever — components that never reunite (default 0).
	LeaveSplit int
	// RootDown is how many phases the fixed root stays crashed per
	// crash (default 2).
	RootDown int
	// CorruptRate is the per-phase probability that a transient fault
	// overwrites the local state of a few random live nodes on top of
	// the phase's topology mutation — composing the state-corruption
	// fault model (package fault) with the partition schedule. The
	// protocol must implement program.NodeCorruptor; the knob is
	// ignored otherwise. Default 0 (off), so existing seeded runs
	// replay unchanged.
	CorruptRate float64
}

func (c SoakConfig) withDefaults(g *graph.Graph) SoakConfig {
	if c.Phases <= 0 {
		c.Phases = 12
	}
	if c.StepBudget <= 0 {
		c.StepBudget = int64(20000 * (g.N() + g.M()))
	}
	if c.SettleHold <= 0 {
		c.SettleHold = int64(2 * g.N())
	}
	if c.MaxCuts <= 0 {
		c.MaxCuts = 3
	}
	if c.MaxCuts < c.LeaveSplit {
		c.MaxCuts = c.LeaveSplit
	}
	if c.RootDown <= 0 {
		c.RootDown = 2
	}
	return c
}

// SoakPhase records one phase of a soak: the mutation applied, the
// detection latency it induced, and the settle that followed.
type SoakPhase struct {
	Index      int
	Op         string
	Components int // live components after the mutation
	// DetectSteps is the global detection latency: steps after the
	// mutation until every live node's Orphaned verdict matched
	// OrphanTruth. −1 when the budget ran out first.
	DetectSteps int64
	// Detect maps component label → that component's own detection
	// latency (first step at which all its verdicts matched truth).
	Detect      map[int]int64
	SettleSteps int64
	SettleMoves int64
	Converged   bool
	ActingRoots int
	// LeaderFlaps is the cumulative acting-root promotion count across
	// all nodes at phase end.
	LeaderFlaps int64
}

// SoakStats aggregates a soak run.
type SoakStats struct {
	Phases     []SoakPhase
	Violations []string
	// FinalComponents is the live component count when the run ended —
	// 1+LeaveSplit on a clean run.
	FinalComponents int
	TotalSteps      int64
	TotalMoves      int64
	Deltas          int64
	// Corruptions counts the nodes hit by CorruptRate transient faults.
	Corruptions int64
	LeaderFlaps int64
	Elapsed     time.Duration
	// Truncated is set when WallBudget expired before all mutation
	// phases ran.
	Truncated bool
}

// Ok reports whether the soak saw no invariant violations.
func (st SoakStats) Ok() bool { return len(st.Violations) == 0 }

// totalFlaps sums promotions over the whole id space (dead nodes keep
// their counts).
func totalFlaps(g *graph.Graph, p Failover) int64 {
	var sum int64
	for v := 0; v < g.N(); v++ {
		sum += p.FlapCount(graph.NodeID(v))
	}
	return sum
}

// Soak runs the multi-partition soak schedule against p, which must
// be the exact protocol r.Sys drives. Any engine works; the
// witness≡scan invariant is only checked when the engine is the serial
// incremental runner (program.NewSystem), the one engine that refreshes
// witness counters move-by-move.
func (r *Runner) Soak(p Failover, cfg SoakConfig) (SoakStats, error) {
	var st SoakStats
	if got, ok := r.Sys.Protocol().(Failover); !ok || got != p {
		return st, fmt.Errorf("churn: soak protocol is not the system's protocol")
	}
	g := r.G
	cfg = cfg.withDefaults(g)
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	steps0, moves0 := r.Sys.Steps(), r.Sys.Moves()

	viol := func(format, op string, idx int, args ...any) {
		head := fmt.Sprintf("phase %d (%s): ", idx, op)
		st.Violations = append(st.Violations, head+fmt.Sprintf(format, args...))
	}
	apply := func(d graph.Delta) {
		r.Sys.ApplyDelta(d)
		st.Deltas++
	}

	// runPhase measures detection latency for the mutation just
	// applied, settles, and checks every soak invariant.
	runPhase := func(idx int, op string) error {
		ph := SoakPhase{Index: idx, Op: op, Components: g.Components(), Detect: map[int]int64{}, DetectSteps: -1}

		// Component membership is stable until the next mutation; fix
		// the labels now and watch each component agree with truth.
		comps := map[int][]graph.NodeID{}
		for v := 0; v < g.N(); v++ {
			id := graph.NodeID(v)
			if g.Alive(id) {
				c := g.ComponentOf(id)
				comps[c] = append(comps[c], id)
			}
		}
		agreed := func(label int) bool {
			for _, v := range comps[label] {
				if p.Orphaned(v) != p.OrphanTruth(v) {
					return false
				}
			}
			return true
		}
		for s := int64(0); ; s++ {
			for label := range comps {
				if _, done := ph.Detect[label]; !done && agreed(label) {
					ph.Detect[label] = s
				}
			}
			if len(ph.Detect) == len(comps) {
				ph.DetectSteps = s
				break
			}
			if s >= cfg.StepBudget {
				break
			}
			n, err := r.Sys.Step()
			if err != nil {
				return err
			}
			// Quiesced while still disagreeing with truth. A 0-move
			// step alone is not terminal: under Activation < 1 it can
			// activate nobody while processors stay enabled.
			if n == 0 && r.Sys.EnabledCount() == 0 {
				break
			}
		}
		if ph.DetectSteps < 0 {
			viol("detection did not converge within %d steps", op, idx, cfg.StepBudget)
		}

		res, err := r.Sys.RunUntilLegitimate(cfg.StepBudget)
		if err != nil {
			return err
		}
		ph.SettleSteps, ph.SettleMoves, ph.Converged = res.Steps, res.Moves, res.Converged
		if !res.Converged {
			viol("no settle within %d steps", op, idx, cfg.StepBudget)
		}

		// Invariant: witness verdict ≡ O(n) scan at the settle point.
		// Only the serial incremental scheduler refreshes witness
		// counters move-by-move; under the full-scan oracle or the
		// parallel stepper the counters go stale by design, so the
		// check would report false violations there.
		if sys, ok := r.Sys.(*program.System); ok && !sys.FullScan() && res.Converged {
			if w, ok := p.(program.Witness); ok {
				if wit, scan := w.WitnessLegitimate(), p.Legitimate(); wit != scan {
					viol("witness %v but Legitimate() %v at settle", op, idx, wit, scan)
				}
			}
		}

		// Invariant: exactly one effective root per live component, and
		// the fixed root — when alive — anchors its own component.
		roots := p.ActingRoots()
		ph.ActingRoots = len(roots)
		if res.Converged {
			perComp := map[int]int{}
			for _, v := range roots {
				perComp[g.ComponentOf(v)]++
			}
			for label := range comps {
				if perComp[label] != 1 {
					viol("component %d has %d effective roots (want 1)", op, idx, label, perComp[label])
				}
			}
			if len(roots) != len(comps) {
				viol("%d effective roots for %d components", op, idx, len(roots), len(comps))
			}
			if g.Alive(r.Root) && !p.IsRoot(r.Root) {
				viol("fixed root %d alive but not authoritative", op, idx, r.Root)
			}
		}

		// Invariant: no false-orphan flaps once detection settled.
		if res.Converged {
			held, err := r.Sys.HoldsFor(p.DetectionAccurate, cfg.SettleHold)
			if err != nil {
				return err
			}
			if !held {
				viol("Orphaned verdict flapped within %d post-settle steps", op, idx, cfg.SettleHold)
			}
		}

		ph.LeaderFlaps = totalFlaps(g, p)
		st.Phases = append(st.Phases, ph)
		return nil
	}

	// Outstanding faults.
	var cuts []func() error // partition restore closures, FIFO
	var rootRestore func() error
	rootDownLeft := 0
	// CutDown's restore skips cut edges with a dead endpoint, and
	// CrashDown's revive re-adds only the edges the root had when it
	// crashed. A cut healed while the root is down would lose its
	// root-incident edges for good, so the heal parks them here and the
	// revive re-adds them.
	var parked []graph.Edge
	revive := func() error {
		if err := rootRestore(); err != nil {
			return err
		}
		rootRestore = nil
		for _, e := range parked {
			if g.Alive(e.U) && g.Alive(e.V) && !g.HasEdge(e.U, e.V) {
				d, err := g.AddEdge(e.U, e.V)
				if err != nil {
					return err
				}
				apply(d)
			}
		}
		parked = parked[:0]
		return nil
	}

	trySplit := func(force bool) (string, bool, error) {
		if !force && len(cuts) >= cfg.MaxCuts {
			return "", false, nil
		}
		size := 1 + rng.Intn(max(1, g.NAlive()/3))
		cut, ok := PickPartitionCut(g, r.Root, size, rng)
		if !ok {
			return "", false, nil
		}
		restore, err := CutDown(g, cut, apply)
		if err != nil {
			return "", false, err
		}
		cuts = append(cuts, func() error {
			for _, e := range cut {
				if !g.Alive(e.U) || !g.Alive(e.V) {
					parked = append(parked, e)
				}
			}
			return restore()
		})
		return fmt.Sprintf("split:%d-edges", len(cut)), true, nil
	}
	heal := func() (string, bool, error) {
		// Never dip below the LeaveSplit floor: those cuts are the
		// components that never reunite, so the schedule must not heal
		// them by accident either.
		if len(cuts) <= cfg.LeaveSplit {
			return "", false, nil
		}
		i := rng.Intn(len(cuts))
		restore := cuts[i]
		cuts = append(cuts[:i], cuts[i+1:]...)
		if err := restore(); err != nil {
			return "", false, err
		}
		return "heal", true, nil
	}
	crashRoot := func(remaining int) (string, bool, error) {
		if rootRestore != nil || !g.Alive(r.Root) || remaining <= cfg.RootDown {
			return "", false, nil
		}
		// CrashDown's revive reclaims the lowest dead slot; the soak
		// only crashes nodes via this path, so the root id comes back.
		restore, err := CrashDown(g, r.Root, apply)
		if err != nil {
			return "", false, err
		}
		rootRestore = restore
		rootDownLeft = cfg.RootDown
		return "root-crash", true, nil
	}

	// Phase 0: baseline settle — arms the witness and checks the
	// invariants before any fault.
	phase := 0
	if err := runPhase(phase, "baseline"); err != nil {
		return st, err
	}
	phase++

	for i := 0; i < cfg.Phases; i++ {
		if cfg.WallBudget > 0 && time.Since(start) > cfg.WallBudget {
			st.Truncated = true
			break
		}
		op, did, err := "", false, error(nil)
		if rootRestore != nil {
			rootDownLeft--
			if rootDownLeft <= 0 {
				if err := revive(); err != nil {
					return st, err
				}
				op, did = "root-revive", true
			}
		}
		if !did {
			// Seeded preference: mostly splits, some heals, an
			// occasional root crash; fall through so a phase always
			// mutates when any fault is possible.
			order := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 0, 2}, {2, 0, 1}}[rng.Intn(6)]
			for _, k := range order {
				switch k {
				case 0:
					op, did, err = trySplit(false)
				case 1:
					op, did, err = heal()
				case 2:
					op, did, err = crashRoot(cfg.Phases - i)
				}
				if err != nil {
					return st, err
				}
				if did {
					break
				}
			}
		}
		if !did {
			op = "idle"
		}
		// Layer state corruption over the topology fault: transient
		// faults and partition events are independent in the model, so
		// the soak exercises their composition. The corrupted nodes'
		// guards go stale wholesale, hence the Invalidate — same repair
		// path the fault campaigns use.
		if cfg.CorruptRate > 0 && rng.Float64() < cfg.CorruptRate {
			if nc, ok := p.(program.NodeCorruptor); ok {
				k := 1 + rng.Intn(3)
				hit := 0
				for attempts := 0; hit < k && attempts < 8*k; attempts++ {
					v := graph.NodeID(rng.Intn(g.N()))
					if g.Alive(v) {
						nc.CorruptNode(v, rng)
						hit++
					}
				}
				if hit > 0 {
					r.Sys.Invalidate()
					st.Corruptions += int64(hit)
					op = fmt.Sprintf("%s+corrupt:%d", op, hit)
				}
			}
		}
		if err := runPhase(phase, op); err != nil {
			return st, err
		}
		phase++
	}

	// Final sequence: revive the root if it is still down, then heal
	// all but LeaveSplit cuts — one measured phase each, so heal-time
	// abdication is checked at every merge.
	if rootRestore != nil {
		if err := revive(); err != nil {
			return st, err
		}
		if err := runPhase(phase, "final-root-revive"); err != nil {
			return st, err
		}
		phase++
	}
	for len(cuts) > cfg.LeaveSplit {
		restore := cuts[0]
		cuts = cuts[1:]
		if err := restore(); err != nil {
			return st, err
		}
		if err := runPhase(phase, "final-heal"); err != nil {
			return st, err
		}
		phase++
	}
	// Guarantee the never-reuniting components by actual component
	// count, not by open-cut count: a heal of an *earlier* cut can
	// re-add edges that bridge a later, never-healed cut's region, so
	// an open cut does not always still disconnect. Split until the
	// graph really has 1+LeaveSplit components.
	for attempts := 0; g.Components() < 1+cfg.LeaveSplit && attempts < cfg.LeaveSplit+4; attempts++ {
		op, did, err := trySplit(true)
		if err != nil {
			return st, err
		}
		if !did {
			break
		}
		if err := runPhase(phase, "final-"+op); err != nil {
			return st, err
		}
		phase++
	}

	st.FinalComponents = g.Components()
	if cfg.LeaveSplit == 0 && st.FinalComponents != 1 {
		st.Violations = append(st.Violations,
			fmt.Sprintf("final: %d components after healing every cut (want 1)", st.FinalComponents))
	}
	st.TotalSteps = r.Sys.Steps() - steps0
	st.TotalMoves = r.Sys.Moves() - moves0
	st.LeaderFlaps = totalFlaps(g, p)
	st.Elapsed = time.Since(start)
	return st, nil
}
