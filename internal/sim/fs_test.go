package sim

import (
	"bytes"
	"fmt"
	"strings"
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

// fsView is everything a reader can see of a store at the given paths.
func fsView(fs *FS, paths []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "list %q\n", fs.List())
	for _, p := range paths {
		data, err := fs.Read(p)
		fmt.Fprintf(&b, "%s: exists %v read %x err %v size %d", p, fs.Exists(p), data, err, fs.Size(p))
		// An offset out of range reports whether the file exists
		// without flipping anything.
		fmt.Fprintf(&b, " corrupt %v\n", fs.CorruptBit(p, -1, 0))
	}
	return b.String()
}

// TestFSResetMatchesNew checks that a reset store is indistinguishable
// from a new one, before and after the same writes, shares, removals and
// flips, and that a path's first Write after the reset reuses the array
// the path had: it allocates nothing.
func TestFSResetMatchesNew(t *testing.T) {
	paths := []string{"ckpt/1", "ckpt/2", "blob", "gone", "new"}
	img := bytes.Repeat([]byte{0xA5}, 256)
	used := NewFS()
	used.Write("ckpt/1", img)
	used.Write("ckpt/2", img[:16])
	used.Share("blob", img)
	used.Write("gone", img[:8])
	used.Remove("gone")
	used.reset()

	fresh := NewFS()
	if got, want := fsView(used, paths), fsView(fresh, paths); got != want {
		t.Fatalf("reset store:\n%s\nnew store:\n%s", got, want)
	}
	for _, fs := range []*FS{used, fresh} {
		fs.Write("ckpt/1", img[:32])
		fs.Write("new", img[:4])
		fs.Share("blob", img[:2])
		fs.Remove("ckpt/2")
		if err := fs.CorruptBit("ckpt/1", 3, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fsView(used, paths), fsView(fresh, paths); got != want {
		t.Fatalf("reset store after the same operations:\n%s\nnew store:\n%s", got, want)
	}

	// A spare the trial did not write is dropped at the next reset.
	used.Write("ckpt/2", img)
	used.reset()
	used.Write("ckpt/1", img)
	used.reset()
	if _, ok := used.files["ckpt/2"]; ok {
		t.Error("a spare survived a second reset unwritten")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		used.reset()
		used.Write("ckpt/1", img)
	}); allocs != 0 {
		t.Errorf("a reset store's first Write of a path it had allocates %.0f objects, want 0", allocs)
	}
	// A removed file keeps its array too, in its trial and the next.
	if allocs := testing.AllocsPerRun(100, func() {
		used.Remove("ckpt/1")
		used.Write("ckpt/1", img)
		used.Remove("ckpt/1")
		used.reset()
		used.Write("ckpt/1", img)
	}); allocs != 0 {
		t.Errorf("a removed path's next Write allocates %.0f objects, want 0", allocs)
	}
}
