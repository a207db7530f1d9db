package daemon

import (
	"testing"

	"netorient/internal/graph"
	"netorient/internal/program"
)

// candidates builds a static EnabledSet over the given nodes (which
// must be ascending, per the EnabledSet contract), two actions each.
func candidates(nodes ...graph.NodeID) program.CandidateSet {
	out := make(program.CandidateSet, len(nodes))
	for i, v := range nodes {
		out[i] = program.Candidate{Node: v, Actions: []program.ActionID{0, 1}}
	}
	return out
}

func TestCentralSelectsExactlyOne(t *testing.T) {
	d := NewCentral(1)
	for i := 0; i < 100; i++ {
		moves := d.Select(candidates(0, 1, 2, 3))
		if len(moves) != 1 {
			t.Fatalf("central selected %d moves", len(moves))
		}
	}
}

func TestCentralIsWeaklyFairInPractice(t *testing.T) {
	d := NewCentral(7)
	seen := map[graph.NodeID]int{}
	for i := 0; i < 2000; i++ {
		mv := d.Select(candidates(0, 1, 2, 3))[0]
		seen[mv.Node]++
	}
	for v := graph.NodeID(0); v < 4; v++ {
		if seen[v] == 0 {
			t.Fatalf("node %d never selected in 2000 steps", v)
		}
	}
}

func TestSynchronousSelectsAll(t *testing.T) {
	d := NewSynchronous(1)
	moves := d.Select(candidates(0, 1, 2))
	if len(moves) != 3 {
		t.Fatalf("synchronous selected %d of 3", len(moves))
	}
	seen := map[graph.NodeID]bool{}
	for _, m := range moves {
		if seen[m.Node] {
			t.Fatal("node selected twice")
		}
		seen[m.Node] = true
	}
}

func TestDistributedSelectsNonEmptySubsets(t *testing.T) {
	d := NewDistributed(3, 0.5)
	for i := 0; i < 500; i++ {
		moves := d.Select(candidates(0, 1, 2, 3, 4))
		if len(moves) == 0 || len(moves) > 5 {
			t.Fatalf("distributed selected %d moves", len(moves))
		}
		seen := map[graph.NodeID]bool{}
		for _, m := range moves {
			if seen[m.Node] {
				t.Fatal("node selected twice in one step")
			}
			seen[m.Node] = true
		}
	}
}

func TestDistributedClampsBadProbability(t *testing.T) {
	if d := NewDistributed(1, -3); d.P != 0.5 {
		t.Errorf("P=%v, want clamp to 0.5", d.P)
	}
	if d := NewDistributed(1, 1.5); d.P != 0.5 {
		t.Errorf("P=%v, want clamp to 0.5", d.P)
	}
}

func TestRoundRobinIsFair(t *testing.T) {
	d := NewRoundRobin()
	// With everyone always enabled, selections must cycle 0,1,2,3,0,…
	var order []graph.NodeID
	for i := 0; i < 8; i++ {
		mv := d.Select(candidates(0, 1, 2, 3))[0]
		order = append(order, mv.Node)
	}
	want := []graph.NodeID{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsDisabled(t *testing.T) {
	d := NewRoundRobin()
	if mv := d.Select(candidates(2, 5))[0]; mv.Node != 2 {
		t.Fatalf("first pick %d, want 2", mv.Node)
	}
	// Now node 2 disabled: the cyclically-next enabled is 5.
	if mv := d.Select(candidates(1, 5))[0]; mv.Node != 5 {
		t.Fatalf("second pick %d, want 5", mv.Node)
	}
	// Wraps around to 1.
	if mv := d.Select(candidates(1, 5))[0]; mv.Node != 1 {
		t.Fatalf("third pick %d, want 1 (wraparound)", mv.Node)
	}
}

func TestDeterministicPicksLowest(t *testing.T) {
	d := NewDeterministic()
	mv := d.Select(program.CandidateSet{
		{Node: 2, Actions: []program.ActionID{3, 0}},
		{Node: 5, Actions: []program.ActionID{2, 1}},
	})[0]
	if mv.Node != 2 || mv.Action != 0 {
		t.Fatalf("picked node %d action %d, want node 2 action 0", mv.Node, mv.Action)
	}
}

func TestAdversarialDelegates(t *testing.T) {
	called := false
	d := NewAdversarial("starve-evens", func(set program.EnabledSet) []program.Move {
		called = true
		// Prefer odd nodes; Contains gives O(1) targeted probes.
		if !set.Contains(1) {
			t.Error("Contains(1) = false on a set holding node 1")
		}
		for i := 0; i < set.Len(); i++ {
			if v := set.At(i); v%2 == 1 {
				return []program.Move{{Node: v, Action: set.Actions(i, nil)[0]}}
			}
		}
		return []program.Move{{Node: set.At(0), Action: set.Actions(0, nil)[0]}}
	})
	mv := d.Select(candidates(0, 1, 2))[0]
	if !called || mv.Node != 1 {
		t.Fatalf("adversarial policy not honoured: %+v", mv)
	}
	if d.Name() != "adversarial:starve-evens" {
		t.Errorf("name %q", d.Name())
	}
}

func TestDaemonNames(t *testing.T) {
	names := map[string]program.Daemon{
		"central":       NewCentral(1),
		"synchronous":   NewSynchronous(1),
		"distributed":   NewDistributed(1, 0.5),
		"round-robin":   NewRoundRobin(),
		"deterministic": NewDeterministic(),
	}
	for want, d := range names {
		if d.Name() != want {
			t.Errorf("name %q, want %q", d.Name(), want)
		}
	}
}
