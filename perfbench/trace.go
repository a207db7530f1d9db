package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"netorient/internal/core"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
)

// The traced run records spans around every call the benchmark makes
// into a module (workload › instance or event › engine call) and, for
// the calls the engine makes into the protocol and the daemon, counts
// every call and times one in sampleEvery through forwarding probes.
// Nothing here runs in a measured (--trace 0) run: there the tracer is
// nil and the engine drives the bare stack and daemon.

// sampleEvery must be a power of two.
const sampleEvery = 16

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is -1 for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory. A nil *tracer
// records nothing, so call sites need no guard. Spans are opened and
// closed on the benchmark's own goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of open span ids
	clock int64   // cost of one clock read pair, subtracted from samples
	proto protoStats
	sel   sampled // daemon Select
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	// Calibrate the cost of the timer itself: the median of many
	// back-to-back clock reads.
	d := make([]float64, 1001)
	for i := range d {
		a := time.Now()
		d[i] = float64(time.Since(a))
	}
	t.clock = int64(quantile(d, 0.5))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(layer, name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = t.now()
	t.open = t.open[:len(t.open)-1]
	return s.End - s.Start
}

// spanStat aggregates the spans of one (layer, name) pair.
type spanStat struct {
	calls  int64
	selfNs int64
}

// selfTimes sums, per layer and span name, self time: a span's
// duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]*spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		k := s.Layer + "." + s.Name
		st := out[k]
		if st == nil {
			st = &spanStat{}
			out[k] = st
		}
		st.calls++
		st.selfNs += s.End - s.Start - child[i]
	}
	return out
}

// spanTotal sums the durations of the spans with the given layer and
// name.
func (t *tracer) spanTotal(layer, name string) (ns int64, calls int64) {
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			ns += s.End - s.Start
			calls++
		}
	}
	return ns, calls
}

// write stores every span, one JSON object a line, in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sampled counts calls to one function and times every sampleEvery-th.
// Probes on the parallel engine are called from its workers, hence the
// atomics.
type sampled struct {
	calls, timed, timedNs atomic.Int64
}

// start counts a call and reports whether to time it.
func (s *sampled) start() (time.Time, bool) {
	if s.calls.Add(1)&(sampleEvery-1) != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (s *sampled) stop(t0 time.Time, clock int64) {
	s.timed.Add(1)
	s.timedNs.Add(int64(time.Since(t0)) - clock)
}

func (s *sampled) reset() {
	s.calls.Store(0)
	s.timed.Store(0)
	s.timedNs.Store(0)
}

// meanNs is the mean duration of the timed calls.
func (s *sampled) meanNs() float64 {
	if n := s.timed.Load(); n > 0 {
		return float64(s.timedNs.Load()) / float64(n)
	}
	return 0
}

// Protocol layers. Moves are credited by action id: the stacks
// partition their ids by layer (substrate ids below core.ActEdgeLabel,
// the orientation layer up to failover.ActDetect, the failover wrapper
// above), and the probe knows which substrate its stack runs on.
const (
	layerToken = iota
	layerSpantree
	layerCore
	layerFailover
	numLayers
)

var layerNames = [numLayers]string{"token", "spantree", "core", "failover"}

func layerOf(a program.ActionID, substrate int) int {
	switch {
	case a >= failover.ActDetect:
		return layerFailover
	case a >= core.ActEdgeLabel:
		return layerCore
	}
	return substrate
}

// protoStats is what the protocol probe counts.
type protoStats struct {
	exec    [numLayers]sampled
	moves   [numLayers]atomic.Int64
	enabled sampled
	legitNs atomic.Int64 // full Legitimate() scans made by the engine
}

// reset zeroes every probe count and drops the spans recorded so far;
// the engines must be idle and no span open.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	ps := &t.proto
	for l := range ps.exec {
		ps.exec[l].reset()
		ps.moves[l].Store(0)
	}
	ps.enabled.reset()
	t.sel.reset()
	ps.legitNs.Store(0)
}

// probe forwards every call to the stack it wraps, counting and
// sampling the calls the engine makes. It implements the optional
// interfaces all benchmarked stacks share; the variants below add the
// ones only some of them have, and wrapProtocol picks the variant whose
// interface set equals the stack's, so the engine takes the same paths
// with and without the probe.
type probe struct {
	in    program.Protocol
	inf   program.Influencer
	ta    program.TopologyAware
	leg   program.Legitimacy
	wit   program.Witness
	rnd   program.Randomizer
	nc    program.NodeCorruptor
	snap  program.Snapshotter
	space program.SpaceMeter
	st    *protoStats
	clock int64
	sub   int // layer of the substrate's action ids
}

func (p *probe) Name() string        { return p.in.Name() }
func (p *probe) Graph() *graph.Graph { return p.in.Graph() }

func (p *probe) Enabled(v graph.NodeID, buf []program.ActionID) []program.ActionID {
	t0, on := p.st.enabled.start()
	buf = p.in.Enabled(v, buf)
	if on {
		p.st.enabled.stop(t0, p.clock)
	}
	return buf
}

func (p *probe) Execute(v graph.NodeID, a program.ActionID) bool {
	l := layerOf(a, p.sub)
	t0, on := p.st.exec[l].start()
	fired := p.in.Execute(v, a)
	if on {
		p.st.exec[l].stop(t0, p.clock)
	}
	if fired {
		p.st.moves[l].Add(1)
	}
	return fired
}

// Legitimate is timed on every call: the parallel engine scans it
// after every step, and its share of the run is a per-layer metric.
func (p *probe) Legitimate() bool {
	t0 := time.Now()
	ok := p.leg.Legitimate()
	p.st.legitNs.Add(int64(time.Since(t0)))
	return ok
}

func (p *probe) Influence(v graph.NodeID, a program.ActionID, buf []graph.NodeID) []graph.NodeID {
	return p.inf.Influence(v, a, buf)
}
func (p *probe) WitnessRefresh(v graph.NodeID) { p.wit.WitnessRefresh(v) }
func (p *probe) WitnessLegitimate() bool       { return p.wit.WitnessLegitimate() }

func (p *probe) TopologyChanged(d graph.Delta, buf []graph.NodeID) []graph.NodeID {
	return p.ta.TopologyChanged(d, buf)
}
func (p *probe) WitnessReset()                              { p.wit.WitnessReset() }
func (p *probe) Randomize(rng *rand.Rand)                   { p.rnd.Randomize(rng) }
func (p *probe) CorruptNode(v graph.NodeID, rng *rand.Rand) { p.nc.CorruptNode(v, rng) }
func (p *probe) Snapshot() []byte                           { return p.snap.Snapshot() }
func (p *probe) Restore(data []byte) error                  { return p.snap.Restore(data) }
func (p *probe) StateBits(v graph.NodeID) int               { return p.space.StateBits(v) }
func (p *probe) ActionName(a program.ActionID) string       { return program.ActionName(p.in, a) }

// rootableProbe adds Rootable (DFTNO).
type rootableProbe struct{ *probe }

func (p rootableProbe) BindRootAuthority(a program.RootAuthority) {
	p.in.(program.Rootable).BindRootAuthority(a)
}

// radiusProbe adds Rootable and LocalityRadius (STNO).
type radiusProbe struct{ rootableProbe }

func (p radiusProbe) LocalityRadius() int { return p.in.(program.LocalityRadius).LocalityRadius() }

// authorityProbe adds LocalityRadius and RootAuthority (the failover
// wrapper).
type authorityProbe struct{ *probe }

func (p authorityProbe) LocalityRadius() int { return p.in.(program.LocalityRadius).LocalityRadius() }
func (p authorityProbe) IsRoot(v graph.NodeID) bool {
	return p.in.(program.RootAuthority).IsRoot(v)
}
func (p authorityProbe) RootsVersion() uint64 { return p.in.(program.RootAuthority).RootsVersion() }

// optionalInterfaces reports which of package program's optional
// protocol interfaces p implements, one bit each.
func optionalInterfaces(p program.Protocol) uint32 {
	has := []bool{}
	add := func(ok bool) { has = append(has, ok) }
	_, ok := p.(program.Influencer)
	add(ok)
	_, ok = p.(program.LocalityRadius)
	add(ok)
	_, ok = p.(program.TopologyAware)
	add(ok)
	_, ok = p.(program.Legitimacy)
	add(ok)
	_, ok = p.(program.Witness)
	add(ok)
	_, ok = p.(program.Randomizer)
	add(ok)
	_, ok = p.(program.NodeCorruptor)
	add(ok)
	_, ok = p.(program.Snapshotter)
	add(ok)
	_, ok = p.(program.SpaceMeter)
	add(ok)
	_, ok = p.(program.ActionNamer)
	add(ok)
	_, ok = p.(program.Rootable)
	add(ok)
	_, ok = p.(program.RootAuthority)
	add(ok)
	var bits uint32
	for i, h := range has {
		if h {
			bits |= 1 << i
		}
	}
	return bits
}

// wrapProtocol returns p behind a probe that implements exactly the
// optional interfaces p implements, or an error when no variant does.
// substrate names the layer of p's substrate action ids. Without a
// tracer p is returned as it is.
func (t *tracer) wrapProtocol(p program.Protocol, substrate int) (program.Protocol, error) {
	if t == nil {
		return p, nil
	}
	want := optionalInterfaces(p)
	if want&1 == 0 { // every benchmarked stack declares its influence sets
		return nil, fmt.Errorf("perfbench: %s has no Influencer", p.Name())
	}
	base := &probe{in: p, st: &t.proto, clock: t.clock, sub: substrate}
	base.inf, _ = p.(program.Influencer)
	base.ta, _ = p.(program.TopologyAware)
	base.leg, _ = p.(program.Legitimacy)
	base.wit, _ = p.(program.Witness)
	base.rnd, _ = p.(program.Randomizer)
	base.nc, _ = p.(program.NodeCorruptor)
	base.snap, _ = p.(program.Snapshotter)
	base.space, _ = p.(program.SpaceMeter)
	for _, c := range []program.Protocol{base, rootableProbe{base}, radiusProbe{rootableProbe{base}}, authorityProbe{base}} {
		if optionalInterfaces(c) == want {
			return c, nil
		}
	}
	return nil, fmt.Errorf("perfbench: no probe forwards exactly the interfaces of %s", p.Name())
}

// daemonProbe counts and samples daemon Select calls.
type daemonProbe struct {
	in program.Daemon
	t  *tracer
}

func (d daemonProbe) Name() string { return d.in.Name() }

func (d daemonProbe) Select(set program.EnabledSet) []program.Move {
	t0, on := d.t.sel.start()
	mv := d.in.Select(set)
	if on {
		d.t.sel.stop(t0, d.t.clock)
	}
	return mv
}

// wrapDaemon returns d behind a probe when tracing, d itself otherwise.
func (t *tracer) wrapDaemon(d program.Daemon) program.Daemon {
	if t == nil {
		return d
	}
	return daemonProbe{in: d, t: t}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
