package orientd_test

import (
	"context"
	"testing"
	"time"

	"netorient/internal/graph"
	"netorient/internal/orientd"
)

// TestSmoke is the acceptance driver: boot on a grid, converge, serve
// 8 parallel clients off the witness counters while an edge flap and a
// node corruption land, confirm re-convergence, metrics, clean
// shutdown.
func TestSmoke(t *testing.T) {
	t.Parallel()
	err := orientd.Smoke(orientd.SmokeConfig{
		Config: orientd.Config{
			GraphSpec: "grid:4x4",
			Stack:     "dftno",
			Seed:      7,
		},
		Converge: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSmokeWeightedToken runs the smoke on a second stack/topology
// with the weighted election and a live pin active underneath.
func TestSmokeWeightedToken(t *testing.T) {
	t.Parallel()
	err := orientd.Smoke(orientd.SmokeConfig{
		Config: orientd.Config{
			GraphSpec: "ring:9",
			Stack:     "token",
			Seed:      11,
			Pins:      map[graph.NodeID]int64{4: 5},
		},
		Converge: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// serveTestServer boots a server on an ephemeral TCP port and returns
// a connected client plus a cleanup-registered shutdown.
func serveTestServer(t *testing.T, cfg orientd.Config) *orientd.Client {
	t.Helper()
	srv, err := orientd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve exit: %v", err)
		}
	})
	cl, err := orientd.Dial(srv.Addr().Network(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// waitLegit polls status until the composed verdict is true.
func waitLegit(t *testing.T, cl *orientd.Client, phase string) orientd.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st orientd.Status
		if err := cl.Do(orientd.Request{Op: "status"}, &st); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if st.Legitimate {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: not legitimate (moves=%d enabled=%d)", phase, st.Moves, st.Enabled)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestVerbs exercises the admin protocol edge cases and the full
// partition / root-crash / heal cycle against a live server.
func TestVerbs(t *testing.T) {
	t.Parallel()
	cl := serveTestServer(t, orientd.Config{GraphSpec: "path:6", Stack: "bfstree", Seed: 3})
	st := waitLegit(t, cl, "initial")
	if st.Nodes != 6 || st.Components != 1 || len(st.ActingRoots) != 1 || st.ActingRoots[0] != 0 {
		t.Fatalf("status = %+v", st)
	}

	// Error paths: unknown verb, out-of-range node, removing a missing
	// edge. Each must answer ok:false without killing the connection.
	for _, bad := range []orientd.Request{
		{Op: "warp"},
		{Op: "corrupt", Node: 99},
		{Op: "cut", U: 0, V: 5},
	} {
		if err := cl.Do(bad, nil); err == nil {
			t.Fatalf("op %+v should have failed", bad)
		}
	}

	// Orientation on a tree stack exposes parent pointers.
	var or orientd.Orientation
	if err := cl.Do(orientd.Request{Op: "orientation"}, &or); err != nil {
		t.Fatal(err)
	}
	if len(or.Parents) != 6 {
		t.Fatalf("orientation parents = %v", or.Parents)
	}

	// Partition: cut 2-3, the tail elects an acting root; per-component
	// legitimacy reports two components.
	if err := cl.Do(orientd.Request{Op: "cut", U: 2, V: 3}, nil); err != nil {
		t.Fatal(err)
	}
	waitLegit(t, cl, "post-cut")
	var leg orientd.Legitimacy
	if err := cl.Do(orientd.Request{Op: "legitimacy"}, &leg); err != nil {
		t.Fatal(err)
	}
	if len(leg.Components) != 2 || !leg.Legitimate {
		t.Fatalf("legitimacy = %+v", leg)
	}
	var orphan *orientd.Component
	for i := range leg.Components {
		if !leg.Components[i].HasRoot {
			orphan = &leg.Components[i]
		}
	}
	if orphan == nil || orphan.Orphaned != 3 || len(orphan.ActingRoots) != 1 {
		t.Fatalf("orphan component missing or wrong: %+v", leg.Components)
	}

	// Heal and confirm the acting root abdicates.
	if err := cl.Do(orientd.Request{Op: "heal", U: 2, V: 3}, nil); err != nil {
		t.Fatal(err)
	}
	st = waitLegit(t, cl, "post-heal")
	if len(st.ActingRoots) != 1 || st.ActingRoots[0] != 0 {
		t.Fatalf("post-heal acting roots = %v", st.ActingRoots)
	}

	// Root crash: the remaining component elects an acting root; revive
	// brings the fixed root back and it reclaims authority.
	if err := cl.Do(orientd.Request{Op: "crash-root"}, nil); err != nil {
		t.Fatal(err)
	}
	st = waitLegit(t, cl, "post-crash")
	if len(st.ActingRoots) != 1 || st.ActingRoots[0] == 0 {
		t.Fatalf("post-crash acting roots = %v", st.ActingRoots)
	}
	if err := cl.Do(orientd.Request{Op: "revive"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.Do(orientd.Request{Op: "heal", U: 0, V: 1}, nil); err != nil {
		t.Fatal(err)
	}
	st = waitLegit(t, cl, "post-revive")
	if len(st.ActingRoots) != 1 || st.ActingRoots[0] != 0 {
		t.Fatalf("post-revive acting roots = %v", st.ActingRoots)
	}

	// Metrics snapshot is sane.
	var m orientd.Metrics
	if err := cl.Do(orientd.Request{Op: "metrics"}, &m); err != nil {
		t.Fatal(err)
	}
	if m.Moves == 0 || m.Requests == 0 || !m.Legitimate {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestParallelEngine boots the service on the sharded parallel
// stepper (Workers=2, frontier waves, resharding armed), drives a
// fault/churn cycle through the admin verbs, and checks the metrics
// verb's parallel section: per-shard work, frontier/wave counters and
// the rebuild/skip counters are live, and no step error surfaced.
func TestParallelEngine(t *testing.T) {
	t.Parallel()
	cl := serveTestServer(t, orientd.Config{
		GraphSpec:        "grid:6x6",
		Stack:            "bfstree",
		Seed:             5,
		Workers:          2,
		FrontierWaves:    true,
		ReshardImbalance: 1.5,
	})
	waitLegit(t, cl, "initial")

	// Topology churn and a transient fault, exactly like the actor
	// path; the stepper must keep re-converging underneath.
	if err := cl.Do(orientd.Request{Op: "flap", U: 14, V: 15}, nil); err != nil {
		t.Fatal(err)
	}
	waitLegit(t, cl, "post-flap")
	if err := cl.Do(orientd.Request{Op: "corrupt", Node: 21}, nil); err != nil {
		t.Fatal(err)
	}
	st := waitLegit(t, cl, "post-corrupt")
	if st.Moves == 0 || st.Enabled != 0 {
		t.Fatalf("status = %+v", st)
	}

	var m orientd.Metrics
	if err := cl.Do(orientd.Request{Op: "metrics"}, &m); err != nil {
		t.Fatal(err)
	}
	pm := m.Parallel
	if pm == nil {
		t.Fatal("metrics: no parallel section on the stepper engine")
	}
	if pm.Workers != 2 || len(pm.ShardWork) != 2 {
		t.Fatalf("parallel metrics = %+v", pm)
	}
	if pm.Steps == 0 || pm.WorkUnits == 0 || pm.WorkUnits < pm.SpanUnits {
		t.Fatalf("work/span accounting = %+v", pm)
	}
	if pm.ShardWork[0]+pm.ShardWork[1] == 0 {
		t.Fatalf("per-shard work all zero: %+v", pm.ShardWork)
	}
	if pm.FrontierRebuilds+pm.WaveRebuilds+pm.ReclassSkips == 0 {
		t.Fatalf("no classification activity recorded after churn: %+v", pm)
	}
	if pm.LastError != "" {
		t.Fatalf("stepper error: %s", pm.LastError)
	}

	// The enabled verb rides the same engine; at legitimacy it is empty.
	var en struct {
		Enabled []int `json:"enabled"`
	}
	if err := cl.Do(orientd.Request{Op: "enabled"}, &en); err != nil {
		t.Fatal(err)
	}
	if len(en.Enabled) != 0 {
		t.Fatalf("enabled at legitimacy = %v", en.Enabled)
	}
}

// TestServeContextCancel: cancelling the serve context shuts the
// server down and Serve returns the context error.
func TestServeContextCancel(t *testing.T) {
	t.Parallel()
	srv, err := orientd.New(orientd.Config{GraphSpec: "ring:5", Stack: "token"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

// TestBadConfig: constructor rejections.
func TestBadConfig(t *testing.T) {
	t.Parallel()
	for _, cfg := range []orientd.Config{
		{GraphSpec: "nope:3"},
		{GraphSpec: "ring:5", Stack: "mystery"},
		{GraphSpec: "ring:5", Root: 9},
		{GraphSpec: "ring:5", Listen: "udp:127.0.0.1:0"},
	} {
		if _, err := orientd.New(cfg); err == nil {
			t.Fatalf("config %+v should have been rejected", cfg)
		}
	}
}

// TestCorruptRejectsDeadNode: after crash-root, corrupting the dead
// root answers ok:false on both engines, and corrupting a live node
// still succeeds.
func TestCorruptRejectsDeadNode(t *testing.T) {
	t.Parallel()
	for _, engine := range []struct {
		name    string
		workers int
	}{{"actor", 0}, {"parallel", 2}} {
		engine := engine
		t.Run(engine.name, func(t *testing.T) {
			t.Parallel()
			cl := serveTestServer(t, orientd.Config{GraphSpec: "path:6", Stack: "bfstree", Seed: 3, Workers: engine.workers})
			waitLegit(t, cl, "initial")
			if err := cl.Do(orientd.Request{Op: "crash-root"}, nil); err != nil {
				t.Fatal(err)
			}
			if err := cl.Do(orientd.Request{Op: "corrupt", Node: 0}, nil); err == nil {
				t.Fatal("corrupt of the crashed root answered ok")
			}
			if err := cl.Do(orientd.Request{Op: "corrupt", Node: 3}, nil); err != nil {
				t.Fatalf("corrupt of a live node: %v", err)
			}
		})
	}
}
