package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// probeRec and probeElem exercise every field kind a Schema walks.
type probeRec struct {
	ID   AID
	Name string
	Hint []string
	memo int // not checkpointed
}

func (r *probeRec) Fields(c *Codec) {
	U64(c, &r.ID, Heap(1, "id", 16))
	Str(c, &r.Name, Heap(0, "name", 64))
	for i := range Rows(c, &r.Hint, 2, "hints") {
		Str(c, &r.Hint[i], NoHeap)
	}
}

type probeElem struct {
	Schema[probeElem, *probeElem]
	bound   int64
	Count   int64
	Live    bool
	Pending bool
	Recs    []probeRec
}

func (e *probeElem) Name() string { return "probe" }

func (e *probeElem) Fields(c *Codec) {
	BindI64(c, "bound", e.bound)
	I64(c, &e.Count, Heap(0, "count", 8))
	Bool(c, &e.Live)
	Dropped(c, &e.Pending)
	for i := range Rows(c, &e.Recs, 3, "records") {
		e.Recs[i].Fields(c.Row(i))
	}
}

func newProbe() *probeElem {
	return Checkpointed(&probeElem{bound: -2, Count: 5, Live: true, Pending: true,
		Recs: []probeRec{{ID: 10, Name: "a", Hint: []string{"x"}}, {ID: 11, Name: "bb"}}})
}

// TestSchemaEncodesInDeclarationOrder holds Snapshot to the Encoder calls
// the declaration spells out.
func TestSchemaEncodesInDeclarationOrder(t *testing.T) {
	var want Encoder
	want.PutI64(-2)
	want.PutI64(5)
	want.PutBool(true)
	want.PutBool(true)
	want.PutU64(2)
	for _, r := range []struct {
		id   uint64
		name string
		hint []string
	}{{10, "a", []string{"x"}}, {11, "bb", nil}} {
		want.PutU64(r.id)
		want.PutString(r.name)
		want.PutU64(uint64(len(r.hint)))
		for _, h := range r.hint {
			want.PutString(h)
		}
	}
	if got := newProbe().Snapshot(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("snapshot\n got %x\nwant %x", got, want.Bytes())
	}
}

func TestSchemaRestore(t *testing.T) {
	snap := bytes.Clone(newProbe().Snapshot())
	e := Checkpointed(&probeElem{bound: -2})
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if e.Count != 5 || !e.Live || e.Pending || len(e.Recs) != 2 || e.Recs[0].Hint[0] != "x" || e.Recs[1].Name != "bb" {
		t.Fatalf("restored %+v", e)
	}
	// A dropped field re-encodes as false; everything else round-trips.
	again := bytes.Clone(e.Snapshot())
	e.Pending = true
	if !bytes.Equal(e.Snapshot(), snap) || bytes.Equal(again, snap) {
		t.Fatal("only the dropped field should differ after a restore")
	}
}

// TestSchemaRestoreReusesTables restores a table into the backing array
// it already has, zeroed first: a record's field that is not checkpointed
// comes back zero.
func TestSchemaRestoreReusesTables(t *testing.T) {
	e := newProbe()
	snap := bytes.Clone(e.Snapshot())
	e.Recs = append(e.Recs, probeRec{ID: 12})
	first := &e.Recs[0]
	first.memo = 7
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(e.Recs) != 2 || &e.Recs[0] != first || first.memo != 0 || first.Hint[0] != "x" {
		t.Fatalf("restored %+v into a new array (%v) or without zeroing it", e.Recs, &e.Recs[0] != first)
	}
}

// TestSchemaRestoreRejects checks each kind of rejection, its message, and
// that a rejected input leaves the element unchanged.
func TestSchemaRestoreRejects(t *testing.T) {
	over := newProbe()
	over.Recs = append(over.Recs, probeRec{}, probeRec{})
	hints := newProbe()
	hints.Recs[1].Hint = []string{"1", "2", "3"}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage", []byte{0xBA, 0xD0}, "tag mismatch"},
		{"trailing", append(bytes.Clone(newProbe().Snapshot()), 0), "1 trailing bytes"},
		{"table bound", bytes.Clone(over.Snapshot()), "probe: 4 records: "},
		{"list bound", bytes.Clone(hints.Snapshot()), "probe: 3 hints: "},
		{"binding", bytes.Clone(Checkpointed(&probeElem{bound: 7}).Snapshot()),
			"probe: checkpoint for bound 7, armor bound to bound -2: "},
	}
	for _, tc := range cases {
		e := newProbe()
		before := bytes.Clone(e.Snapshot())
		err := e.Restore(tc.data)
		if err == nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want ErrCorrupt containing %q", tc.name, err, tc.want)
		}
		if !bytes.Equal(e.Snapshot(), before) {
			t.Errorf("%s: rejected restore changed the element", tc.name)
		}
	}
}

// TestSchemaHeapFields checks names, declared order and widths, and that
// Get and Set reach the live field.
func TestSchemaHeapFields(t *testing.T) {
	e := newProbe()
	var names []string
	for _, f := range e.HeapFields() {
		names = append(names, f.Name)
	}
	const want = "probe.count probe.name[0] probe.id[0] probe.name[1] probe.id[1]"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("heap fields %s, want %s", got, want)
	}
	f := e.HeapFields()
	if f[0].Bits != 8 || f[2].Bits != 16 || f[1].Bits != 64 {
		t.Fatalf("widths %d %d %d", f[0].Bits, f[1].Bits, f[2].Bits)
	}
	f[4].Set(f[4].Get() ^ 1)
	f[3].Set(f[3].Get() ^ 1)
	if e.Recs[1].ID != 10 || e.Recs[1].Name != "cb" {
		t.Fatalf("record after flips %+v", e.Recs[1])
	}
}
