// Package core implements the ARMOR runtime — the paper's primary
// contribution. An ARMOR (Adaptive Reconfigurable Mobile Object of
// Reliability) is an event-driven process composed of elements: modules
// with private state that subscribe to message events. The runtime
// provides:
//
//   - the element framework and event dispatch loop (Section 3.1),
//   - microcheckpointing: per-element incremental state capture after
//     every event delivery, committed to stable storage on every message
//     transmission so the global checkpoint set stays consistent and
//     recovery rolls back exactly one process (Section 3.4),
//   - internal self-checks/assertions that kill the ARMOR on corrupted
//     state so that ordinary crash recovery takes over (Section 3.3),
//   - reliable point-to-point messaging with acknowledgments,
//     retransmission, and duplicate suppression,
//   - are-you-alive liveness responses,
//   - hooks through which the fault injectors corrupt live element state,
//     outgoing messages, and checkpoint buffers.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Element state is serialized with a small tagged binary codec rather than
// encoding/gob for two reasons: determinism (no type-registry ordering
// effects) and honest fault injection — a bit flip in a length or tag byte
// makes the state unparseable (caught at restore), while a flip in payload
// bytes yields corrupted-but-parseable values that assertions may or may
// not catch, exactly the split the paper's heap experiments explore.

type fieldTag byte

const (
	tagU64 fieldTag = iota + 1
	tagI64
	tagF64
	tagBool
	tagString
	tagBytes
)

// ErrCorrupt reports that serialized element state failed to parse.
var ErrCorrupt = errors.New("core: corrupt element state")

// Encoder serializes element state fields in a fixed, element-defined
// order. The zero Encoder is ready to use. Put* appends, growing the
// buffer when it must; an element keeps one Encoder for its lifetime and
// starts every Snapshot with Reset, so encoding stops allocating once the
// buffer has reached the state's size.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated encoding. The slice aliases the encoder's
// buffer: it is valid until the next Reset or Put*, and a caller that keeps
// it longer must copy it.
//
//reesift:noalloc
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder while keeping its backing buffer, so a
// long-lived encoder (per-ARMOR scratch) stops allocating once it has
// grown to the working-set size. The slice returned by a previous Bytes
// call is invalidated.
//
//reesift:noalloc
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutU64 appends an unsigned 64-bit field.
//
//reesift:noalloc
func (e *Encoder) PutU64(v uint64) { e.word(tagU64, v) }

// PutI64 appends a signed 64-bit field.
//
//reesift:noalloc
func (e *Encoder) PutI64(v int64) { e.word(tagI64, uint64(v)) }

// PutF64 appends a float64 field.
//
//reesift:noalloc
func (e *Encoder) PutF64(v float64) { e.word(tagF64, math.Float64bits(v)) }

// word appends a tag and an 8-byte little-endian value in one append.
//
//reesift:noalloc
func (e *Encoder) word(tag fieldTag, v uint64) {
	e.buf = append(e.buf, byte(tag), byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// PutBool appends a boolean field.
//
//reesift:noalloc
func (e *Encoder) PutBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, byte(tagBool), b)
}

// PutString appends a length-prefixed string field.
//
//reesift:noalloc
func (e *Encoder) PutString(s string) {
	n := len(s)
	e.buf = append(e.buf, byte(tagString), byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte-slice field.
//
//reesift:noalloc
func (e *Encoder) PutBytes(b []byte) {
	e.buf = append(e.buf, byte(tagBytes))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder parses fields in the order they were encoded.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps serialized state.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) expect(tag fieldTag, size int) bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at offset %d", d.off)
		return false
	}
	if fieldTag(d.buf[d.off]) != tag {
		d.fail("tag mismatch at offset %d: got %d want %d", d.off, d.buf[d.off], tag)
		return false
	}
	d.off++
	if size > 0 && d.off+size > len(d.buf) {
		d.fail("truncated field at offset %d", d.off)
		return false
	}
	return true
}

// U64 reads an unsigned 64-bit field.
func (d *Decoder) U64() uint64 {
	if !d.expect(tagU64, 8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a signed 64-bit field.
func (d *Decoder) I64() int64 {
	if !d.expect(tagI64, 8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return int64(v)
}

// F64 reads a float64 field.
func (d *Decoder) F64() float64 {
	if !d.expect(tagF64, 8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// Bool reads a boolean field.
func (d *Decoder) Bool() bool {
	if !d.expect(tagBool, 1) {
		return false
	}
	v := d.buf[d.off]
	d.off++
	if v > 1 {
		d.fail("bool value %d", v)
		return false
	}
	return v == 1
}

// String reads a string field.
func (d *Decoder) String() string {
	if !d.expect(tagString, 4) {
		return ""
	}
	n := int(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("string length %d exceeds buffer", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Bytes reads a byte-slice field.
func (d *Decoder) Bytes() []byte {
	if !d.expect(tagBytes, 4) {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("bytes length %d exceeds buffer", n)
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// Done reports a decode error if trailing bytes remain or any field failed.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}
