package sim

import (
	"bytes"
	"fmt"
	"sort"
)

// FS is a flat in-memory file store. One instance per node plays the local
// RAM disk (checkpoint storage); a kernel-wide instance plays the remote
// file system on the testbed's Sun workstation (program executables,
// application input, application output).
//
// Every stored buffer has one owner. A file stored by Write owns a private
// copy, which the next Write of the path may reuse; a file stored by Share
// is an immutable blob that other paths, and whoever handed it over, may
// hold as well. Read hands out the stored bytes themselves, read-only.
// CorruptBit flips a copy, so a fault never reaches another holder of a
// blob.
//
// FS is only ever touched by the kernel or the one process it is running,
// so it needs no locking.
type FS struct {
	files map[string]file
}

// file is one stored path. shared marks data as an immutable blob the FS
// does not own: it is never written in place.
type file struct {
	data   []byte
	shared bool
}

// NewFS returns an empty file store.
func NewFS() *FS {
	return &FS{files: make(map[string]file)}
}

// Write stores a copy of data under path, replacing any previous content.
// The previous content's backing array is reused when the file owns it and
// it is large enough, and grows amortised otherwise, so a file that gains
// a few bytes on every write (a checkpoint image with a growing table)
// does not reallocate every time. A reused array invalidates the views
// earlier Reads of path returned.
func (f *FS) Write(path string, data []byte) {
	old := f.files[path]
	if old.shared {
		old.data = nil
	}
	f.files[path] = file{data: append(old.data[:0], data...)}
}

// Share stores data under path without copying it, replacing any previous
// content. The caller hands data over as an immutable blob: after Share,
// no one may write data again. One blob may be shared under any number of
// paths.
func (f *FS) Share(path string, data []byte) {
	f.files[path] = file{data: data, shared: true}
}

// Read returns the file's content: the stored bytes themselves, which the
// caller must not write (a blob stored by Share may be read by other paths
// and other kernels in the process). A Write of path may reuse them, so
// decode the view, or copy it, before the next Write of path.
func (f *FS) Read(path string) ([]byte, error) {
	stored, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("sim/fs: %q: %w", path, ErrNotExist)
	}
	return stored.data, nil
}

// Exists reports whether path holds a file.
func (f *FS) Exists(path string) bool {
	_, ok := f.files[path]
	return ok
}

// Remove deletes a file. Removing a missing file is a no-op.
func (f *FS) Remove(path string) { delete(f.files, path) }

// List returns all paths in sorted order.
func (f *FS) List() []string {
	paths := make([]string, 0, len(f.files))
	for p := range f.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Size returns the byte size of a file, or 0 if absent.
func (f *FS) Size(path string) int { return len(f.files[path].data) }

// CorruptBit flips one bit in a stored file. The heap and checkpoint
// injectors use it. It never writes stored bytes: it flips a copy and
// stores that in their place, so the flip reaches neither another path
// sharing the blob, nor whoever handed it over, nor a view an earlier Read
// returned. Injections are rare, so the copy is cheap. It returns an error
// if the file is missing or the offset is out of range.
func (f *FS) CorruptBit(path string, byteOff int, bit uint) error {
	stored, ok := f.files[path]
	if !ok {
		return fmt.Errorf("sim/fs: corrupt %q: %w", path, ErrNotExist)
	}
	if byteOff < 0 || byteOff >= len(stored.data) {
		return fmt.Errorf("sim/fs: corrupt %q: offset %d out of range [0,%d)", path, byteOff, len(stored.data))
	}
	data := bytes.Clone(stored.data)
	data[byteOff] ^= 1 << (bit % 8)
	f.files[path] = file{data: data}
	return nil
}

// ErrNotExist is returned when a file is absent.
var ErrNotExist = fmt.Errorf("file does not exist")
