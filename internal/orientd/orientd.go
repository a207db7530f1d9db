// Package orientd is the long-running orientation service: it boots
// any protocol stack from the library — wrapped in the root-failover
// layer — on a graph.Named topology, runs self-stabilization
// underneath on the message-passing actor runtime (or the sharded
// parallel stepper when Config.Workers ≥ 1), and serves queries and
// fault-injection verbs over an admin socket.
//
// The admin protocol is JSON lines: one request object per line, one
// response object per line, over a Unix or TCP stream socket. Query
// verbs (status, legitimacy, orientation, enabled, metrics) are
// read-only and safe to hammer from many clients at once — legitimacy
// answers come off the O(1) witness counters, never an O(n) scan.
// Fault verbs (corrupt, flap, cut, heal, crash-root, revive) perturb
// the running system exactly the way the simulation campaigns do:
// through protocol corruption hooks and graph deltas. The service
// keeps stabilizing underneath; clients watch it re-converge.
package orientd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netorient/internal/actor"
	"netorient/internal/core"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// Config describes one orientd instance.
type Config struct {
	// GraphSpec is a graph.Named spec, e.g. "grid:6x6" or
	// "gnp:24:0.2:7".
	GraphSpec string
	// Stack selects the protocol: dftno|stno|token|bfstree|dfstree.
	Stack string
	// Root is the fixed root processor. Defaults to 0.
	Root graph.NodeID
	// Listen is "unix:<path>" or "tcp:<host:port>". Defaults to
	// "tcp:127.0.0.1:0" (ephemeral port; read Addr after New).
	Listen string
	// Seed derives the runtime's RNG streams.
	Seed int64
	// Weighted enables the weighted acting-root election; Pins maps
	// nodes to operator priorities (implies Weighted when non-empty).
	Weighted bool
	Pins     map[graph.NodeID]int64
	// Actor tunes the message runtime (delivery faults, mailbox
	// capacity, tick). Seed is overridden by Config.Seed. Ignored when
	// Workers ≥ 1.
	Actor actor.Config
	// Workers selects the execution engine underneath the service:
	// 0 (default) runs the message-passing actor runtime; N ≥ 1 runs
	// the sharded parallel stepper with N workers — its own maximal
	// distributed daemon, so the Actor delivery-fault knobs do not
	// apply.
	Workers int
	// FrontierWaves enables batched concurrent wave execution of the
	// parallel stepper's boundary pass (Workers ≥ 1 only).
	FrontierWaves bool
	// ReshardImbalance and ReshardMinInterval arm the parallel
	// stepper's work-driven resharding policy
	// (program.ReshardPolicy); an imbalance ≤ 1 leaves it off.
	ReshardImbalance   float64
	ReshardMinInterval int64
}

// Request is one admin line.
type Request struct {
	Op   string `json:"op"`
	Node int    `json:"node,omitempty"`
	U    int    `json:"u,omitempty"`
	V    int    `json:"v,omitempty"`
}

// Response is one admin reply line.
type Response struct {
	OK   bool   `json:"ok"`
	Op   string `json:"op,omitempty"`
	Err  string `json:"err,omitempty"`
	Data any    `json:"data,omitempty"`
}

// Status is the "status" verb payload.
type Status struct {
	Stack       string `json:"stack"`
	Graph       string `json:"graph"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Components  int    `json:"components"`
	Legitimate  bool   `json:"legitimate"`
	Enabled     int    `json:"enabled"`
	Moves       int64  `json:"moves"`
	ActingRoots []int  `json:"acting_roots"`
	Clients     int64  `json:"clients"`
	UptimeMS    int64  `json:"uptime_ms"`
	// Error is the step error that stopped the engine, if any: a
	// service reporting one no longer stabilizes.
	Error string `json:"error,omitempty"`
}

// Component is one entry of the "legitimacy" verb payload.
type Component struct {
	Size        int   `json:"size"`
	HasRoot     bool  `json:"has_root"`
	ActingRoots []int `json:"acting_roots"`
	Orphaned    int   `json:"orphaned"`
	Flaps       int64 `json:"flaps"`
}

// Legitimacy is the "legitimacy" verb payload: the composed O(1)
// verdict plus the per-component breakdown.
type Legitimacy struct {
	Legitimate  bool        `json:"legitimate"`
	Components  []Component `json:"components"`
	LeaderFlaps int64       `json:"leader_flaps"`
}

// Orientation is the "orientation" verb payload: whatever structure
// the stack exposes — node names for the orientation protocols,
// parent pointers for trees and the circulator.
type Orientation struct {
	Legitimate bool  `json:"legitimate"`
	Names      []int `json:"names,omitempty"`
	Parents    []int `json:"parents,omitempty"`
}

// ParallelMetrics is the parallel-stepper section of the "metrics"
// payload (Workers ≥ 1): per-shard cumulative phase-A work makes
// imbalance observable on the live service, frontier size and wave
// count make frontier fatness observable, and the rebuild/skip
// counters show how much classification work topology churn causes.
type ParallelMetrics struct {
	Workers          int     `json:"workers"`
	Steps            int64   `json:"steps"`
	Rounds           int64   `json:"rounds"`
	WorkUnits        int64   `json:"work_units"`
	SpanUnits        int64   `json:"span_units"`
	BoundarySpan     int64   `json:"boundary_span_units"`
	ShardWork        []int64 `json:"shard_work"`
	Frontier         int     `json:"frontier"`
	WaveSets         int     `json:"wave_sets"`
	Reshards         int64   `json:"reshards"`
	FrontierRebuilds int64   `json:"frontier_rebuilds"`
	WaveRebuilds     int64   `json:"wave_rebuilds"`
	ReclassSkips     int64   `json:"reclass_skips"`
	LastError        string  `json:"last_error,omitempty"`
}

// Metrics is the "metrics" verb payload. The embedded actor metrics
// are zero when the service runs on the parallel stepper; Parallel is
// nil when it runs on the actor runtime.
type Metrics struct {
	actor.Metrics
	Parallel *ParallelMetrics `json:"parallel,omitempty"`
	Requests int64            `json:"admin_requests"`
	Clients  int64            `json:"clients"`
}

// engine abstracts the execution runtime underneath the service: the
// message-passing *actor.Runtime (Config.Workers == 0) or the sharded
// parallel stepper's host (Workers ≥ 1). Both keep stabilizing in the
// background while admin verbs read a consistent view via Locked.
type engine interface {
	Start() error
	Stop()
	Legitimate() bool
	EnabledCount() int
	EnabledNodes(buf []graph.NodeID) []graph.NodeID
	Moves() int64
	Locked(f func())
	CorruptNode(v graph.NodeID) error
	// Mutate applies one graph mutation and resynchronizes the engine
	// with the resulting delta. Implementations must not let a step
	// observe the mutated graph before the engine's caches are
	// reconciled.
	Mutate(f func() (graph.Delta, error)) error
}

// stepperHost drives a ParallelSystem as a long-running engine: a
// stepping goroutine fires distributed-daemon steps under the host
// mutex, idling briefly whenever the configuration is terminal (a
// fault or topology verb re-enables processors), and admin verbs take
// the same mutex for a consistent view. Unlike the actor adapter,
// Mutate holds the mutex across mutation and ApplyDelta: the
// stepper's shard/frontier caches index the graph directly, so a step
// between the two would read reclaimed or unclassified nodes.
type stepperHost struct {
	mu      sync.Mutex
	ps      *program.ParallelSystem
	fp      *failover.Protocol
	g       *graph.Graph
	rng     *rand.Rand // admin fault-injection RNG, guarded by mu
	stepErr error      // first Step error; stepping stops on it
	stop    chan struct{}
	done    chan struct{}
}

func (h *stepperHost) Start() error {
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go h.loop()
	return nil
}

func (h *stepperHost) loop() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		h.mu.Lock()
		if h.stepErr != nil {
			h.mu.Unlock()
			return
		}
		n, err := h.ps.Step()
		if err != nil {
			h.stepErr = err
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
		if n == 0 {
			select {
			case <-h.stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
}

func (h *stepperHost) Stop() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

func (h *stepperHost) Legitimate() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fp.Legitimate()
}

func (h *stepperHost) EnabledCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ps.EnabledCount()
}

func (h *stepperHost) EnabledNodes(buf []graph.NodeID) []graph.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ps.EnabledNodes(buf)
}

func (h *stepperHost) Moves() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ps.Moves()
}

func (h *stepperHost) Locked(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f()
}

func (h *stepperHost) CorruptNode(v graph.NodeID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if v < 0 || int(v) >= h.g.N() || !h.g.Alive(v) {
		return fmt.Errorf("orientd: corrupt: node %d out of range", v)
	}
	h.fp.CorruptNode(v, h.rng)
	h.ps.Invalidate()
	return nil
}

func (h *stepperHost) Mutate(f func() (graph.Delta, error)) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, err := f()
	if err != nil {
		return err
	}
	h.ps.ApplyDelta(d)
	return nil
}

// metrics snapshots the stepper's counters under the host mutex.
func (h *stepperHost) metrics() *ParallelMetrics {
	h.mu.Lock()
	defer h.mu.Unlock()
	pm := &ParallelMetrics{
		Workers:          h.ps.Workers(),
		Steps:            h.ps.Steps(),
		Rounds:           h.ps.Rounds(),
		WorkUnits:        h.ps.WorkUnits(),
		SpanUnits:        h.ps.SpanUnits(),
		BoundarySpan:     h.ps.BoundarySpanUnits(),
		ShardWork:        h.ps.ShardWork(nil),
		Frontier:         h.ps.FrontierSize(),
		WaveSets:         h.ps.WaveCount(),
		Reshards:         h.ps.Reshards(),
		FrontierRebuilds: h.ps.FrontierRebuilds(),
		WaveRebuilds:     h.ps.WaveRebuilds(),
		ReclassSkips:     h.ps.ReclassSkips(),
	}
	if h.stepErr != nil {
		pm.LastError = h.stepErr.Error()
	}
	return pm
}

// Server is one orientd instance: a stack, its actor runtime, and the
// admin listener.
type Server struct {
	cfg Config
	g   *graph.Graph
	fp  *failover.Protocol
	eng engine
	ln  net.Listener

	adminMu  sync.Mutex // serializes graph-mutating verbs
	start    time.Time
	clients  atomic.Int64
	requests atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
	conns     sync.WaitGroup
}

// buildStack constructs the named protocol stack on g.
func buildStack(name string, g *graph.Graph, root graph.NodeID) (failover.Inner, error) {
	switch name {
	case "dftno":
		sub, err := token.NewCirculator(g, root)
		if err != nil {
			return nil, err
		}
		return core.NewDFTNO(g, sub, 0)
	case "stno":
		sub, err := spantree.NewBFSTree(g, root)
		if err != nil {
			return nil, err
		}
		return core.NewSTNO(g, sub, 0)
	case "token":
		return token.NewCirculator(g, root)
	case "bfstree":
		return spantree.NewBFSTree(g, root)
	case "dfstree":
		return spantree.NewDFSTree(g, root)
	}
	return nil, fmt.Errorf("orientd: unknown stack %q (dftno|stno|token|bfstree|dfstree)", name)
}

// New builds the stack, the runtime and the listener. The returned
// server is not yet stabilizing: call Serve.
func New(cfg Config) (*Server, error) {
	if cfg.GraphSpec == "" {
		cfg.GraphSpec = "grid:4x4"
	}
	if cfg.Stack == "" {
		cfg.Stack = "dftno"
	}
	if cfg.Listen == "" {
		cfg.Listen = "tcp:127.0.0.1:0"
	}
	g, err := graph.Named(cfg.GraphSpec)
	if err != nil {
		return nil, err
	}
	if int(cfg.Root) >= g.N() || cfg.Root < 0 {
		return nil, fmt.Errorf("orientd: root %d out of range for %s", cfg.Root, cfg.GraphSpec)
	}
	inner, err := buildStack(cfg.Stack, g, cfg.Root)
	if err != nil {
		return nil, err
	}
	fp := failover.New(g, inner, cfg.Root)
	if cfg.Weighted || len(cfg.Pins) > 0 {
		fp.WeightElection(cfg.Pins)
	}
	var eng engine
	if cfg.Workers >= 1 {
		ps := program.NewParallelSystem(fp, program.ParallelConfig{
			Workers:       cfg.Workers,
			Seed:          cfg.Seed,
			FrontierWaves: cfg.FrontierWaves,
			Reshard: program.ReshardPolicy{
				Imbalance:   cfg.ReshardImbalance,
				MinInterval: cfg.ReshardMinInterval,
			},
		})
		eng = &stepperHost{
			ps: ps, fp: fp, g: g,
			rng: rand.New(rand.NewSource(cfg.Seed ^ 0x6f72696e)),
		}
	} else {
		acfg := cfg.Actor
		acfg.Seed = cfg.Seed
		if eng, err = actor.New(fp, acfg); err != nil {
			return nil, err
		}
	}
	network, addr, ok := strings.Cut(cfg.Listen, ":")
	if !ok || (network != "unix" && network != "tcp") {
		return nil, fmt.Errorf("orientd: listen %q, want unix:<path> or tcp:<host:port>", cfg.Listen)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		g:      g,
		fp:     fp,
		eng:    eng,
		ln:     ln,
		start:  time.Now(),
		closed: make(chan struct{}),
	}, nil
}

// Addr returns the admin socket address (useful with tcp:...:0).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, wakes Serve, and shuts the runtime down.
// Safe to call more than once and concurrently with Serve.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ln.Close()
	})
}

// Serve starts stabilization and the accept loop, blocking until the
// context is cancelled or a client issues the shutdown verb. Open
// connections are drained before the runtime stops; a graceful
// shutdown returns nil.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.eng.Start(); err != nil {
		return err
	}
	defer s.eng.Stop()
	go func() {
		select {
		case <-ctx.Done():
			s.Close()
		case <-s.closed:
		}
	}()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.conns.Wait()
			select {
			case <-s.closed:
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return nil // graceful shutdown
			default:
				return err
			}
		}
		s.conns.Add(1)
		s.clients.Add(1)
		go func() {
			defer s.conns.Done()
			defer s.clients.Add(-1)
			s.serveConn(conn)
		}()
	}
}

// serveConn runs the JSON-line loop for one client.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			resp = Response{OK: false, Err: "malformed request: " + err.Error()}
		} else {
			resp = s.dispatch(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Op == "shutdown" && resp.OK {
			s.Close()
			return
		}
	}
}

// dispatch executes one admin verb.
func (s *Server) dispatch(req Request) Response {
	s.requests.Add(1)
	fail := func(err error) Response {
		return Response{OK: false, Op: req.Op, Err: err.Error()}
	}
	ok := func(data any) Response {
		return Response{OK: true, Op: req.Op, Data: data}
	}
	switch req.Op {
	case "status":
		return ok(s.status())
	case "legitimacy":
		return ok(s.legitimacy())
	case "orientation":
		return ok(s.orientation())
	case "enabled":
		var buf []graph.NodeID
		buf = s.eng.EnabledNodes(buf)
		ids := make([]int, len(buf))
		for i, v := range buf {
			ids[i] = int(v)
		}
		sort.Ints(ids)
		return ok(map[string]any{"enabled": ids})
	case "metrics":
		m := Metrics{
			Requests: s.requests.Load(),
			Clients:  s.clients.Load(),
		}
		switch e := s.eng.(type) {
		case *actor.Runtime:
			m.Metrics = e.Metrics()
		case *stepperHost:
			m.Parallel = e.metrics()
		}
		return ok(m)
	case "corrupt":
		if err := s.eng.CorruptNode(graph.NodeID(req.Node)); err != nil {
			return fail(err)
		}
		return ok(nil)
	case "cut":
		if err := s.mutate(func() (graph.Delta, error) {
			return s.g.RemoveEdge(graph.NodeID(req.U), graph.NodeID(req.V))
		}); err != nil {
			return fail(err)
		}
		return ok(nil)
	case "heal":
		if err := s.mutate(func() (graph.Delta, error) {
			return s.g.AddEdge(graph.NodeID(req.U), graph.NodeID(req.V))
		}); err != nil {
			return fail(err)
		}
		return ok(nil)
	case "flap":
		u, v := graph.NodeID(req.U), graph.NodeID(req.V)
		if err := s.mutate(func() (graph.Delta, error) { return s.g.RemoveEdge(u, v) }); err != nil {
			return fail(err)
		}
		if err := s.mutate(func() (graph.Delta, error) { return s.g.AddEdge(u, v) }); err != nil {
			return fail(err)
		}
		return ok(nil)
	case "crash-root":
		if err := s.mutate(func() (graph.Delta, error) {
			return s.g.RemoveNode(s.fp.Root())
		}); err != nil {
			return fail(err)
		}
		return ok(nil)
	case "revive":
		if err := s.mutate(func() (graph.Delta, error) {
			_, d := s.g.AddNode()
			return d, nil
		}); err != nil {
			return fail(err)
		}
		return ok(nil)
	case "shutdown":
		return ok(nil)
	}
	return fail(fmt.Errorf("unknown op %q", req.Op))
}

// mutate applies one graph mutation through the engine's combined
// mutate-and-resync path — so no step observes a half-applied
// topology. Admin mutations are serialized with each other.
func (s *Server) mutate(f func() (graph.Delta, error)) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	return s.eng.Mutate(f)
}

// status builds the "status" payload.
func (s *Server) status() Status {
	var st Status
	st.Stack = s.fp.Name()
	st.Graph = s.cfg.GraphSpec
	st.Legitimate = s.eng.Legitimate()
	st.Enabled = s.eng.EnabledCount()
	st.Moves = s.eng.Moves()
	st.Clients = s.clients.Load()
	st.UptimeMS = time.Since(s.start).Milliseconds()
	s.eng.Locked(func() {
		st.Nodes = s.g.N()
		st.Edges = s.g.M()
		st.Components = s.g.Components()
		for _, r := range s.fp.ActingRoots() {
			st.ActingRoots = append(st.ActingRoots, int(r))
		}
		if h, ok := s.eng.(*stepperHost); ok && h.stepErr != nil {
			st.Error = h.stepErr.Error()
		}
	})
	return st
}

// legitimacy builds the per-component breakdown. The overall verdict
// is the composed witness answer (O(1)); the breakdown walks the
// component labels once.
func (s *Server) legitimacy() Legitimacy {
	out := Legitimacy{Legitimate: s.eng.Legitimate()}
	s.eng.Locked(func() {
		comps := make(map[int]*Component)
		var labels []int
		for v := 0; v < s.g.N(); v++ {
			id := graph.NodeID(v)
			if !s.g.Alive(id) {
				continue
			}
			c := s.g.ComponentOf(id)
			ci := comps[c]
			if ci == nil {
				ci = &Component{}
				comps[c] = ci
				labels = append(labels, c)
			}
			ci.Size++
			ci.Flaps += s.fp.FlapCount(id)
			if id == s.fp.Root() {
				ci.HasRoot = true
			}
			if s.fp.IsRoot(id) {
				ci.ActingRoots = append(ci.ActingRoots, v)
			}
			if s.fp.Orphaned(id) {
				ci.Orphaned++
			}
		}
		sort.Ints(labels)
		for _, c := range labels {
			out.Components = append(out.Components, *comps[c])
		}
		out.LeaderFlaps = s.fp.LeaderFlaps
	})
	return out
}

// orientation builds the stack-specific structure payload.
func (s *Server) orientation() Orientation {
	out := Orientation{Legitimate: s.eng.Legitimate()}
	type namer interface{ Names() []int }
	type parenter interface {
		Parent(graph.NodeID) graph.NodeID
	}
	s.eng.Locked(func() {
		in := s.fp.Inner()
		if nm, ok := in.(namer); ok {
			out.Names = append(out.Names, nm.Names()...)
		}
		if pt, ok := in.(parenter); ok {
			out.Parents = make([]int, s.g.N())
			for v := 0; v < s.g.N(); v++ {
				out.Parents[v] = int(pt.Parent(graph.NodeID(v)))
			}
		}
	})
	return out
}
