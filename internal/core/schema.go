package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Schema gives a checkpointed record its Snapshot, Restore and HeapFields
// from one declaration of its layout: its Fields method, which walks every
// checkpointed field in encoding order through a Codec, one call per field
// (U64, I64, Str, Bool, Dropped, BindU64, BindI64) or per table (Rows). The
// walk encodes for Snapshot, decodes for Restore and lists the
// heap-injectable fields for HeapFields, so the three cannot disagree.
//
// Every element's region is declared this way, and so is the ARMOR
// runtime's own: the reliable channel's sequence tables (commState). An
// element's Check stays hand-written: its assertions are the element's,
// not the layout's.
//
// A record embeds Schema[E, *E] and is wired to itself with Checkpointed
// before use.
type Schema[E any, P interface {
	*E
	Name() string
	Fields(*Codec)
}] struct {
	self P
	c    Codec
}

// Checkpointed wires the Schema an element embeds to the element.
func Checkpointed[E any, P interface {
	*E
	attach(P)
}](e P) P {
	e.attach(e)
	return e
}

func (s *Schema[E, P]) attach(self P) { s.self = self }

// Snapshot implements Element. The result aliases the element's scratch
// encoder: it is valid until the element's next Snapshot.
//
//reesift:noalloc
func (s *Schema[E, P]) Snapshot() []byte {
	s.c.op = opEncode
	s.c.enc.Reset()
	s.self.Fields(&s.c)
	return s.c.enc.Bytes()
}

// Restore implements Element. A checkpoint is accepted only if every
// field parsed, every bound and binding held and no bytes were left over;
// a rejected one leaves the element as it was, decoded back from a
// snapshot taken first. An accepted one also sizes the element's scratch
// encoder to the checkpoint's length, so that a restored element's first
// Snapshot does not regrow it from nothing.
func (s *Schema[E, P]) Restore(data []byte) error {
	w := walks.Get().(*walk)
	s.c.enc, w.prior = w.prior, s.c.enc
	prior := s.Snapshot()
	s.c.enc, w.prior = w.prior, s.c.enc
	w.dec, w.elem = Decoder{buf: data}, s.self.Name()
	s.c.op, s.c.walk = opDecode, w
	s.self.Fields(&s.c)
	err := s.c.result()
	if err != nil {
		s.c.op, w.dec, w.err, w.nkeys = opUndo, Decoder{buf: prior}, nil, 0
		s.self.Fields(&s.c)
	} else if cap(s.c.enc.buf) < len(data) {
		s.c.enc.buf = make([]byte, 0, len(data))
	}
	s.c.walk, w.dec, w.err, w.nkeys = nil, Decoder{}, nil, 0
	walks.Put(w)
	return err
}

// HeapFields implements HeapInjectable: the fields declared with a
// HeapSpec, named element.field (element.field[i] for record i of a
// table), each record's fields in their declared HeapFields order.
func (s *Schema[E, P]) HeapFields() []HeapField {
	w := walks.Get().(*walk)
	w.elem, w.rec, w.base = s.self.Name(), -1, 0
	s.c.op, s.c.walk = opList, w
	s.self.Fields(&s.c)
	fields := w.heap
	s.c.walk, w.heap = nil, nil
	walks.Put(w)
	return fields
}

// HeapSpec declares whether a field is heap-injectable (Section 7.2).
type HeapSpec struct {
	pos  int
	name string
	bits uint
}

// Heap declares a field heap-injectable under name, with bits as its
// meaningful width (HeapField.Bits), listed at pos among its record's
// injectable fields.
func Heap(pos int, name string, bits uint) HeapSpec { return HeapSpec{pos, name, bits} }

// NoHeap declares a field not heap-injectable.
var NoHeap HeapSpec

type codecOp uint8

const (
	opEncode codecOp = iota
	opList
	opDecode
	// opUndo decodes an element's own prior snapshot back into it: it
	// drops no flag and checks no bound or binding.
	opUndo
)

// Codec is one walk over an element's fields, driven by its Schema.
type Codec struct {
	op  codecOp
	enc Encoder
	*walk
}

// walks recycles the state of a decode or a listing, so that an element
// at rest carries only its encoder and a restore allocates only what it
// decodes.
var walks = sync.Pool{New: func() any { return new(walk) }}

// walk is the state of a decode or a listing.
type walk struct {
	prior Encoder // the element's state before a Restore
	dec   Decoder
	err   error // the first bound violation, which outranks dec's error
	elem  string

	keys  [2]bindKey // the binding keys read by this decode
	nkeys int

	rec, base int // record being listed (-1 outside a table), its first slot in heap
	heap      []HeapField
}

type bindKey struct {
	name      string
	got, want any
}

// result is a decode's verdict: a bound violation, else a parse error or
// leftover bytes, else a binding mismatch.
func (c *Codec) result() error {
	if c.err != nil {
		return c.err
	}
	if err := c.dec.Done(); err != nil {
		return err
	}
	keys := c.keys[:c.nkeys]
	for _, k := range keys {
		if k.got == k.want {
			continue
		}
		var got, want []string
		for _, k := range keys {
			got, want = append(got, fmt.Sprint(k.name, " ", k.got)), append(want, fmt.Sprint(k.name, " ", k.want))
		}
		return fmt.Errorf("%s: checkpoint for %s, armor bound to %s: %w",
			c.elem, strings.Join(got, " "), strings.Join(want, " "), ErrCorrupt)
	}
	return nil
}

// add lists one injectable field at its declared place in the record.
func (c *Codec) add(h HeapSpec, get func() uint64, set func(uint64)) {
	name := c.elem + "." + h.name
	if c.rec >= 0 {
		name += "[" + strconv.Itoa(c.rec) + "]"
	}
	i := c.base + h.pos
	for len(c.heap) <= i {
		c.heap = append(c.heap, HeapField{})
	}
	c.heap[i] = HeapField{Name: name, Bits: h.bits, Get: get, Set: set}
}

// U64 declares an unsigned 64-bit field (a process ID travels as one).
func U64[T ~uint64 | ~int](c *Codec, p *T, h HeapSpec) {
	switch {
	case c.op == opEncode:
		c.enc.PutU64(uint64(*p))
	case c.op >= opDecode:
		*p = T(c.dec.U64())
	case h.bits > 0:
		c.add(h, func() uint64 { return uint64(*p) }, func(v uint64) { *p = T(v) })
	}
}

// I64 declares a signed 64-bit field.
func I64[T ~int64](c *Codec, p *T, h HeapSpec) {
	switch {
	case c.op == opEncode:
		c.enc.PutI64(int64(*p))
	case c.op >= opDecode:
		*p = T(c.dec.I64())
	case h.bits > 0:
		c.add(h, func() uint64 { return uint64(*p) }, func(v uint64) { *p = T(v) })
	}
}

// Str declares a string field; an injection flips a bit of its first
// eight bytes.
func Str(c *Codec, p *string, h HeapSpec) {
	switch {
	case c.op == opEncode:
		c.enc.PutString(*p)
	case c.op >= opDecode:
		*p = c.dec.String()
	case h.bits > 0:
		c.add(h, func() uint64 { return packString(*p) }, func(v uint64) { *p = unpackString(*p, v) })
	}
}

// Bool declares a boolean field.
func Bool(c *Codec, p *bool) {
	switch {
	case c.op == opEncode:
		c.enc.PutBool(*p)
	case c.op >= opDecode:
		*p = c.dec.Bool()
	}
}

// Dropped declares a boolean field that is checkpointed but deliberately
// not restored: Restore parses it and leaves it false.
func Dropped(c *Codec, p *bool) {
	Bool(c, p)
	if c.op == opDecode {
		*p = false
	}
}

// BindU64 declares a binding key: a value the element was built for,
// checkpointed so that Restore refuses, once the whole input has parsed, a
// checkpoint taken for another binding. An element has at most two.
func BindU64(c *Codec, name string, v uint64) {
	switch {
	case c.op == opEncode:
		c.enc.PutU64(v)
	case c.op >= opDecode:
		c.keys[c.nkeys], c.nkeys = bindKey{name, c.dec.U64(), v}, c.nkeys+1
	}
}

// BindI64 is BindU64 for a signed key.
func BindI64(c *Codec, name string, v int64) {
	switch {
	case c.op == opEncode:
		c.enc.PutI64(v)
	case c.op >= opDecode:
		c.keys[c.nkeys], c.nkeys = bindKey{name, c.dec.I64(), v}, c.nkeys+1
	}
}

// Rows declares a table of at most max entries (noun names them in the
// bound violation) and returns how many to walk, a record as
// recs[i].Fields(c.Row(i)). Decoding reads the count and resizes the
// table to it: into its own backing array, zeroed, when that is large
// enough, else into a fresh one. A count larger than the bytes left is
// refused before anything is allocated, since every record takes at
// least one byte.
func Rows[R any](c *Codec, recs *[]R, max uint64, noun string) int {
	switch {
	case c.op == opEncode:
		c.enc.PutU64(uint64(len(*recs)))
	case c.op >= opDecode:
		n := c.dec.U64()
		if n > max && c.op == opDecode && c.err == nil {
			c.err = fmt.Errorf("%s: %d %s: %w", c.elem, n, noun, ErrCorrupt)
		}
		if left := len(c.dec.buf) - c.dec.off; n > uint64(left) {
			c.dec.fail("%d %s in %d bytes", n, noun, left)
		}
		if c.err != nil || c.dec.err != nil {
			return 0
		}
		if uint64(cap(*recs)) >= n {
			*recs = (*recs)[:n]
			clear(*recs)
		} else {
			*recs = make([]R, n)
		}
	}
	return len(*recs)
}

// Row marks the start of record i of a table and returns c.
func (c *Codec) Row(i int) *Codec {
	if c.op == opList {
		c.rec, c.base = i, len(c.heap)
	}
	return c
}

// packString views the first 8 bytes of a string as a word.
func packString(s string) uint64 {
	var b [8]byte
	copy(b[:], s)
	return binary.LittleEndian.Uint64(b[:])
}

// unpackString writes a word back over the first 8 bytes of a string.
func unpackString(s string, v uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	n := min(len(s), 8)
	return string(b[:n]) + s[n:]
}
