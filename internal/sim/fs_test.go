package sim

import (
	"bytes"
	"testing"
)

// TestFSShareCorruptBitCopiesBlob shares one buffer under two paths and
// flips bits in one of them: only that path changes, and neither the other
// path nor the caller's buffer sees the flip.
func TestFSShareCorruptBitCopiesBlob(t *testing.T) {
	blob := []byte{0x10, 0x20, 0x30, 0x40}
	pristine := bytes.Clone(blob)
	fs := NewFS()
	fs.Share("a", blob)
	fs.Share("b", blob)
	if a, _ := fs.Read("a"); &a[0] != &blob[0] {
		t.Fatal("Share copied the blob")
	}

	if err := fs.CorruptBit("a", 1, 2); err != nil {
		t.Fatal(err)
	}
	// A second flip keeps the first.
	if err := fs.CorruptBit("a", 3, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x10, 0x24, 0x30, 0x41}
	if a, _ := fs.Read("a"); !bytes.Equal(a, want) {
		t.Fatalf("a = %x, want %x", a, want)
	}
	if b, _ := fs.Read("b"); !bytes.Equal(b, pristine) {
		t.Fatalf("a flip in a reached b: b = %x, want %x", b, pristine)
	}
	if !bytes.Equal(blob, pristine) {
		t.Fatalf("a flip in a reached the shared buffer: %x, want %x", blob, pristine)
	}
}

// TestFSWriteOverSharedPathCopies overwrites a shared path with Write:
// the new content is stored in a buffer of the FS's own, never in the
// shared blob, and Write keeps copying what it is given.
func TestFSWriteOverSharedPathCopies(t *testing.T) {
	blob := make([]byte, 4, 64) // spare capacity a reused array would write into
	copy(blob, []byte{1, 2, 3, 4})
	pristine := bytes.Clone(blob[:cap(blob)])
	fs := NewFS()
	fs.Share("a", blob)
	fs.Share("b", blob)

	data := []byte{9, 8, 7, 6, 5}
	fs.Write("a", data)
	if !bytes.Equal(blob[:cap(blob)], pristine) {
		t.Fatalf("Write over a shared path wrote the shared buffer: %x", blob[:cap(blob)])
	}
	if b, _ := fs.Read("b"); !bytes.Equal(b, pristine[:4]) {
		t.Fatalf("Write over a changed another path: b = %x", b)
	}
	data[0] = 0xFF
	if a, _ := fs.Read("a"); !bytes.Equal(a, []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("a = %x: Write kept the caller's buffer", a)
	}
	// Flips of the written file stay in it.
	if err := fs.CorruptBit("a", 0, 1); err != nil {
		t.Fatal(err)
	}
	if b, _ := fs.Read("b"); !bytes.Equal(b, pristine[:4]) || !bytes.Equal(blob[:cap(blob)], pristine) {
		t.Fatal("a flip of a written file reached the shared buffer")
	}
}
