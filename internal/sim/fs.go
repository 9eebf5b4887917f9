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

// file is one stored path.
type file struct {
	data  []byte
	state fileState
}

// fileState says who owns a stored array and whether readers see it. An
// owned file (Write) is a private copy the FS may write in place; a
// shared one (Share) is an immutable blob it never writes. A removed file
// (Remove) and a spare (emptied by reset) are absent to every reader and
// only keep their array for the path's next Write. reset turns a removed
// file into a spare and drops spares, so a removed array outlives one
// reset and a spare's none.
type fileState uint8

const (
	owned fileState = iota
	shared
	removed
	spare
)

// absent reports whether readers see no file.
func (s file) absent() bool { return s.state >= removed }

// NewFS returns an empty file store.
func NewFS() *FS {
	return &FS{files: make(map[string]file)}
}

// reset empties the store for a new simulation, as NewFS would, but keeps
// each owned or removed file's array as spare capacity for its path's
// first Write: a trial that checkpoints the same paths as the one before
// does not allocate their images again. Spares the last trial did not
// write are dropped, so the store holds at most one trial's paths.
func (f *FS) reset() {
	for path, stored := range f.files {
		if stored.state == shared || stored.state == spare {
			delete(f.files, path)
			continue
		}
		f.files[path] = file{data: stored.data[:0], state: spare}
	}
}

// Write stores a copy of data under path, replacing any previous content.
// The previous content's backing array is reused when the file owns it and
// it is large enough, and grows amortised otherwise, so a file that gains
// a few bytes on every write (a checkpoint image with a growing table)
// does not reallocate every time. A reused array invalidates the views
// earlier Reads of path returned.
func (f *FS) Write(path string, data []byte) {
	old := f.files[path]
	if old.state == shared {
		old.data = nil
	}
	f.files[path] = file{data: append(old.data[:0], data...)}
}

// Share stores data under path without copying it, replacing any previous
// content. The caller hands data over as an immutable blob: after Share,
// no one may write data again. One blob may be shared under any number of
// paths.
func (f *FS) Share(path string, data []byte) {
	f.files[path] = file{data: data, state: shared}
}

// Read returns the file's content: the stored bytes themselves, which the
// caller must not write (a blob stored by Share may be read by other paths
// and other kernels in the process). A Write of path may reuse them, so
// decode the view, or copy it, before the next Write of path.
func (f *FS) Read(path string) ([]byte, error) {
	stored, ok := f.files[path]
	if !ok || stored.absent() {
		return nil, fmt.Errorf("sim/fs: %q: %w", path, ErrNotExist)
	}
	return stored.data, nil
}

// Exists reports whether path holds a file.
func (f *FS) Exists(path string) bool {
	stored, ok := f.files[path]
	return ok && !stored.absent()
}

// Remove deletes a file. Removing a missing file is a no-op. A file the
// FS owns keeps its array for the path's next Write, as reset does, so a
// checkpoint discarded in one trial is not allocated again in the next;
// that Write invalidates the views earlier Reads of path returned.
func (f *FS) Remove(path string) {
	switch stored, ok := f.files[path]; {
	case !ok || stored.absent():
	case stored.state == shared:
		delete(f.files, path)
	default:
		f.files[path] = file{data: stored.data[:0], state: removed}
	}
}

// List returns all paths in sorted order.
func (f *FS) List() []string {
	paths := make([]string, 0, len(f.files))
	for p, stored := range f.files {
		if !stored.absent() {
			paths = append(paths, p)
		}
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
	if !ok || stored.absent() {
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
