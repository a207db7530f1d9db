package program

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SnapshotWriter encodes a configuration as a flat list of fields:
// varint integers, one-byte booleans, and length-prefixed layers (an
// inner stack's own snapshot). Every Snapshotter in the repository
// writes through it, so the byte format is defined once. A stack
// writes its fields in an order fixed by the graph and the fields
// before them, which keeps the encoding canonical and injective, and
// lets its Restore read them back in the same order. The zero value is
// ready to use; NewSnapshotWriter presizes the buffer.
type SnapshotWriter struct {
	buf []byte
}

// NewSnapshotWriter returns a writer with room for size bytes.
func NewSnapshotWriter(size int) SnapshotWriter {
	return SnapshotWriter{buf: make([]byte, 0, size)}
}

// Int appends a signed (zig-zag varint) field.
func (w *SnapshotWriter) Int(x int) { w.buf = binary.AppendVarint(w.buf, int64(x)) }

// Uint appends an unsigned varint field.
func (w *SnapshotWriter) Uint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Bool appends a one-byte field, 1 for true and 0 for false.
func (w *SnapshotWriter) Bool(b bool) {
	var x byte
	if b {
		x = 1
	}
	w.buf = append(w.buf, x)
}

// Layer appends the inner stack's snapshot as one length-prefixed
// field; a nil inner stack writes an empty field.
func (w *SnapshotWriter) Layer(inner Snapshotter) {
	var sub []byte
	if inner != nil {
		sub = inner.Snapshot()
	}
	w.Uint(uint64(len(sub)))
	w.buf = append(w.buf, sub...)
}

// Bytes returns the encoded snapshot.
func (w *SnapshotWriter) Bytes() []byte { return w.buf }

// SnapshotReader decodes what a SnapshotWriter wrote, field by field
// in the same order. The first error sticks: later reads return zero
// values, and Err reports it. A Restore therefore reads every field
// unconditionally and checks Err once at the end.
type SnapshotReader struct {
	data []byte
	err  error
}

// NewSnapshotReader returns a reader over data.
func NewSnapshotReader(data []byte) SnapshotReader { return SnapshotReader{data: data} }

var errTruncated = errors.New("program: truncated snapshot")

// Int reads a signed field.
func (r *SnapshotReader) Int() int {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.data)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.data = r.data[n:]
	return int(x)
}

// Uint reads an unsigned field.
func (r *SnapshotReader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.data = r.data[n:]
	return x
}

// Bool reads a one-byte field; any byte other than 0 or 1 is an error.
func (r *SnapshotReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data) == 0 {
		r.err = errTruncated
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	if b > 1 {
		r.err = fmt.Errorf("program: snapshot boolean byte %d", b)
	}
	return b == 1
}

// Layer reads one length-prefixed field and restores inner from it.
// A nil inner stack accepts only an empty field.
func (r *SnapshotReader) Layer(inner Snapshotter) {
	size := r.Uint()
	if r.err != nil {
		return
	}
	if size > uint64(len(r.data)) {
		r.err = fmt.Errorf("program: snapshot layer of %d bytes overruns the %d left", size, len(r.data))
		return
	}
	sub := r.data[:size]
	r.data = r.data[size:]
	switch {
	case inner != nil:
		if err := inner.Restore(sub); err != nil {
			r.err = fmt.Errorf("program: restore inner layer: %w", err)
		}
	case size != 0:
		r.err = errors.New("program: snapshot has layer bytes but no inner stack to restore")
	}
}

// Err reports the first read error, or an error if bytes remain
// unread.
func (r *SnapshotReader) Err() error {
	if r.err == nil && len(r.data) != 0 {
		return fmt.Errorf("program: %d trailing snapshot bytes", len(r.data))
	}
	return r.err
}
