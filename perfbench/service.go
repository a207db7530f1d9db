package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"netorient/internal/graph"
	"netorient/internal/orientd"
)

// serviceFaults is one batch of the service workload: each entry is a
// fault the admin client injects before it polls for recovery.
var serviceFaults = []string{"corrupt", "flap", "corrupt", "cut", "corrupt", "flap", "crash-root"}

// readMix is the share of polls that are not status: every readEvery-th
// poll issues the next of readVerbs instead.
var readVerbs = []string{"orientation", "legitimacy", "metrics"}

const readEvery = 4

// service is the service workload: an orientd server on the actor
// runtime, listening on a TCP loopback socket, and one admin client
// driving it in a closed loop.
type service struct {
	srv     *orientd.Server
	served  chan error
	cl      *orientd.Client
	g       *graph.Graph // the server's topology as the client knows it
	edges   []graph.Edge
	root    graph.NodeID
	rng     *rand.Rand
	tr      *tracer
	polls   int
	reads   int
	timeout time.Duration
}

const serviceRoot = graph.NodeID(0)

func setupService(cfg config) (instance, error) {
	spec := "grid:10x10"
	if cfg.toy {
		spec = "grid:4x4"
	}
	g, err := graph.Named(spec)
	if err != nil {
		return nil, err
	}
	srv, err := orientd.New(orientd.Config{GraphSpec: spec, Stack: "dftno", Root: serviceRoot, Listen: "tcp:127.0.0.1:0", Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	w := &service{
		srv:     srv,
		served:  make(chan error, 1),
		g:       g,
		edges:   g.Edges(),
		root:    serviceRoot,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		tr:      cfg.tr,
		timeout: 10 * time.Second,
	}
	go func() { w.served <- srv.Serve(context.Background()) }()
	if w.cl, err = orientd.Dial(srv.Addr().Network(), srv.Addr().String()); err != nil {
		w.close()
		return nil, err
	}
	if err := w.awaitLegitimate(nil, "boot"); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// do issues one admin verb and records its latency.
func (w *service) do(rec *recorder, req orientd.Request, data any) error {
	sp := w.tr.begin("orientd", req.Op)
	t0 := time.Now()
	err := w.cl.Do(req, data)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	w.tr.end(sp)
	if rec != nil {
		rec.verbs[req.Op] = append(rec.verbs[req.Op], us)
	}
	return err
}

// awaitLegitimate polls status back to back until the service reports
// itself legitimate, mixing in the other read verbs. rec is nil during
// setup.
func (w *service) awaitLegitimate(rec *recorder, phase string) error {
	t0 := time.Now()
	for {
		w.polls++
		if w.polls%readEvery == 0 {
			verb := readVerbs[w.reads%len(readVerbs)]
			w.reads++
			if err := w.do(rec, orientd.Request{Op: verb}, nil); err != nil {
				return fmt.Errorf("%s: %w", phase, err)
			}
			continue
		}
		var st orientd.Status
		if err := w.do(rec, orientd.Request{Op: "status"}, &st); err != nil {
			return fmt.Errorf("%s: %w", phase, err)
		}
		if st.Legitimate {
			return nil
		}
		if time.Since(t0) > w.timeout {
			return fmt.Errorf("%s: not legitimate within %v", phase, w.timeout)
		}
	}
}

// check confirms recovery outside any timed span: the legitimacy verb
// must agree with status. Once the fault is undone the client also
// checks the payloads against the topology it knows: one component
// holding every node and the root, and node names that number the
// nodes in a depth-first order of the network.
func (w *service) check(rec *recorder, fault string, undone bool) error {
	sp := w.tr.begin("check", "recovery")
	defer w.tr.end(sp)
	var l orientd.Legitimacy
	if err := w.cl.Do(orientd.Request{Op: "legitimacy"}, &l); err != nil {
		return fmt.Errorf("%s: legitimacy: %w", fault, err)
	}
	rec.check(l.Legitimate, "service %s: status reported legitimacy, the legitimacy verb disagrees", fault)
	if !undone {
		return nil
	}
	rec.check(len(l.Components) == 1 && l.Components[0].Size == w.g.N() && l.Components[0].HasRoot,
		"service %s: components %+v, want one of %d nodes holding the root", fault, l.Components, w.g.N())
	var o orientd.Orientation
	if err := w.cl.Do(orientd.Request{Op: "orientation"}, &o); err != nil {
		return fmt.Errorf("%s: orientation: %w", fault, err)
	}
	rec.check(depthFirstNames(w.g, o.Names), "service %s: names %v are not a depth-first numbering of the network", fault, o.Names)
	return nil
}

// depthFirstNames reports whether names numbers g's nodes 0..n-1 in the
// order some depth-first traversal of g, from the node named 0, visits
// them: each next node must be a neighbor of the deepest node on the
// traversal's stack that still has an unvisited neighbor.
func depthFirstNames(g *graph.Graph, names []int) bool {
	n := g.N()
	if len(names) != n || n == 0 {
		return false
	}
	order := make([]graph.NodeID, n)
	named := make([]bool, n)
	for v, x := range names {
		if x < 0 || x >= n || named[x] {
			return false
		}
		named[x] = true
		order[x] = graph.NodeID(v)
	}
	visited := make([]bool, n)
	adjacent := func(u, v graph.NodeID) (adj, unvisited bool) {
		for _, q := range g.Neighbors(u) {
			if q == graph.None {
				continue
			}
			adj = adj || q == v
			unvisited = unvisited || !visited[q]
		}
		return adj, unvisited
	}
	stack := []graph.NodeID{order[0]}
	visited[order[0]] = true
	for _, v := range order[1:] {
		for len(stack) > 0 {
			adj, unvisited := adjacent(stack[len(stack)-1], v)
			if adj {
				break
			}
			if unvisited {
				return false
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return false
		}
		visited[v] = true
		stack = append(stack, v)
	}
	return true
}

func (w *service) batch(rec *recorder) error {
	for _, fault := range serviceFaults {
		ev := w.tr.begin("workload", "event")
		err := w.fault(rec, fault)
		w.tr.end(ev)
		if err != nil {
			// An admin error fails this fault, and the run goes on.
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			rec.op(fault, 0, false)
		}
	}
	return nil
}

// fault injects one fault and measures the time until the client sees
// the service legitimate again. Two-phase faults (cut then heal, crash
// then revive) add the recovery times of both phases.
func (w *service) fault(rec *recorder, fault string) error {
	var phases [][]orientd.Request
	switch fault {
	case "corrupt":
		phases = [][]orientd.Request{{{Op: "corrupt", Node: w.rng.Intn(w.g.N())}}}
	case "flap":
		e := w.edges[w.rng.Intn(len(w.edges))]
		phases = [][]orientd.Request{{{Op: "flap", U: int(e.U), V: int(e.V)}}}
	case "cut":
		e := w.edges[w.rng.Intn(len(w.edges))]
		phases = [][]orientd.Request{{{Op: "cut", U: int(e.U), V: int(e.V)}}, {{Op: "heal", U: int(e.U), V: int(e.V)}}}
	case "crash-root":
		// revive brings the root back without links; heal re-links it.
		revive := []orientd.Request{{Op: "revive"}}
		for _, q := range w.g.Neighbors(w.root) {
			if q != graph.None {
				revive = append(revive, orientd.Request{Op: "heal", U: int(w.root), V: int(q)})
			}
		}
		phases = [][]orientd.Request{{{Op: "crash-root"}}, revive}
	default:
		return fmt.Errorf("service: unknown fault %q", fault)
	}
	var total time.Duration
	for i, reqs := range phases {
		t0 := time.Now()
		for _, req := range reqs {
			if err := w.do(rec, req, nil); err != nil {
				return fmt.Errorf("service %s: %w", fault, err)
			}
		}
		if err := w.awaitLegitimate(rec, fault); err != nil {
			return err
		}
		total += time.Since(t0)
		if err := w.check(rec, fault, i == len(phases)-1); err != nil {
			return err
		}
	}
	rec.op(fault, float64(total.Nanoseconds())/1e6, true)
	return nil
}

// counts is empty: the actor schedule is not a function of the seed.
func (w *service) counts() map[string]int64 { return map[string]int64{} }

func (w *service) layers(m metrics, t *traceRun) error {
	for verb, xs := range t.rec.verbs {
		m.set("orientd."+verb+"_us_p50", quantile(xs, 0.5), "us")
		m.set("orientd."+verb+"_us_p99", quantile(xs, 0.99), "us")
	}
	// Runtime counters since boot, read after the run.
	var am orientd.Metrics
	if err := w.cl.Do(orientd.Request{Op: "metrics"}, &am); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if am.Moves > 0 {
		m.set("actor.msgs_per_move", float64(am.Sent)/float64(am.Moves), "ratio")
		m.set("actor.requests_per_move", float64(am.Requests)/float64(am.Moves), "ratio")
	}
	if am.Sent > 0 {
		m.set("actor.drop_full_ratio", float64(am.DroppedFull)/float64(am.Sent), "ratio")
	}
	m.set("actor.mailbox_peak", float64(am.MailboxPeak), "count")
	var l orientd.Legitimacy
	if err := w.cl.Do(orientd.Request{Op: "legitimacy"}, &l); err != nil {
		return fmt.Errorf("legitimacy: %w", err)
	}
	m.set("failover.leader_flaps", float64(l.LeaderFlaps), "count")
	return nil
}

func (w *service) close() {
	if w.cl != nil {
		w.cl.Close()
	}
	w.srv.Close()
	<-w.served
}
