package failover_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/token"
)

// snapshotGraphs are the topologies the snapshot tests build on.
var snapshotGraphs = []string{"path:3", "grid:3x3"}

// snapStack is what the snapshot tests drive: every Snapshotter here
// also randomizes, which yields non-trivial valid snapshots.
type snapStack interface {
	program.Snapshotter
	program.Randomizer
}

// snapshotter is one Snapshotter under test. layered marks the stacks
// whose snapshot opens with an inner stack's length-prefixed layer.
type snapshotter struct {
	name    string
	p       snapStack
	layered bool
}

// snapshotters builds every Snapshotter in the repository on the graph
// spec: the token oracle, the five stacks of inners bare, and the same
// five under the failover wrapper.
func snapshotters(tb testing.TB, spec string) []snapshotter {
	tb.Helper()
	g, err := graph.Named(spec)
	if err != nil {
		tb.Fatal(err)
	}
	o, err := token.NewOracle(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	out := []snapshotter{{name: "oracle", p: o}}
	names := make([]string, 0, len(inners()))
	for name := range inners() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mk := inners()[name]
		bare, err := mk(g)
		if err != nil {
			tb.Fatal(err)
		}
		in, err := mk(g)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out,
			snapshotter{name: name, p: bare.(snapStack), layered: name == "dftno" || name == "stno"},
			snapshotter{name: "failover/" + name, p: failover.New(g, in, 0), layered: true})
	}
	return out
}

// overrunLayer rewrites a layered snapshot so that its leading layer
// length claims one byte more than the data holds.
func overrunLayer(snap []byte) []byte {
	r := program.NewSnapshotReader(snap)
	var head program.SnapshotWriter
	head.Uint(r.Uint())
	rest := snap[len(head.Bytes()):]
	w := program.NewSnapshotWriter(len(snap) + 1)
	w.Uint(uint64(len(rest)) + 1)
	return append(w.Bytes(), rest...)
}

// TestRestoreRejectsMalformedSnapshots: every Snapshotter, bare and
// wrapped, rejects every strict prefix of a valid snapshot, the
// snapshot plus one trailing byte, and (where a layer opens the
// snapshot) a layer length that runs past the data; the valid
// snapshot still round-trips afterwards.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	t.Parallel()
	for _, spec := range snapshotGraphs {
		for _, c := range snapshotters(t, spec) {
			t.Run(spec+"/"+c.name, func(t *testing.T) {
				c.p.Randomize(rand.New(rand.NewSource(1)))
				valid := c.p.Snapshot()
				bad := map[string][]byte{
					"trailing byte": append(bytes.Clone(valid), 0),
				}
				for i := range valid {
					bad[fmt.Sprintf("prefix of %d bytes", i)] = valid[:i]
				}
				if c.layered {
					bad["layer overrun"] = overrunLayer(valid)
				}
				for name, data := range bad {
					if err := c.p.Restore(data); err == nil {
						t.Errorf("%s: Restore(%x) accepted a malformed snapshot", name, data)
					}
				}
				if err := c.p.Restore(valid); err != nil {
					t.Fatal(err)
				}
				if got := c.p.Snapshot(); !bytes.Equal(got, valid) {
					t.Fatalf("round trip after rejections: %x, want %x", got, valid)
				}
			})
		}
	}
}

// FuzzRestore: Restore of arbitrary bytes never panics on any
// Snapshotter, and whatever it accepts is a fixpoint of the next
// Snapshot→Restore→Snapshot round trip. Seeds are the valid snapshots
// of every Snapshotter, at construction and randomized.
func FuzzRestore(f *testing.F) {
	for _, spec := range snapshotGraphs {
		for _, c := range snapshotters(f, spec) {
			f.Add(c.p.Snapshot())
			c.p.Randomize(rand.New(rand.NewSource(1)))
			f.Add(c.p.Snapshot())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range snapshotGraphs {
			for _, c := range snapshotters(t, spec) {
				if c.p.Restore(data) != nil {
					continue
				}
				first := c.p.Snapshot()
				if err := c.p.Restore(first); err != nil {
					t.Fatalf("%s %s: restoring its own snapshot: %v", spec, c.name, err)
				}
				if again := c.p.Snapshot(); !bytes.Equal(again, first) {
					t.Fatalf("%s %s: snapshot %x restored as %x", spec, c.name, first, again)
				}
			}
		}
	})
}
