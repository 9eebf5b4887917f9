package sim

import (
	"fmt"
	"sort"
)

// FS is a flat in-memory file store. One instance per node plays the local
// RAM disk (checkpoint storage); a kernel-wide instance plays the remote
// file system on the testbed's Sun workstation (program executables,
// application input, application output).
//
// FS is only ever touched by the kernel or the one process it is running,
// so it needs no locking.
type FS struct {
	files map[string][]byte
}

// NewFS returns an empty file store.
func NewFS() *FS {
	return &FS{files: make(map[string][]byte)}
}

// Write stores a copy of data under path, replacing any previous content.
// The previous content's backing array is reused when large enough — safe
// because Read hands out copies, so no caller holds an alias into the
// stored bytes (CorruptBit mutates in place by design) — and grows
// amortised otherwise, so a file that gains a few bytes on every write (a
// checkpoint image with a growing table) does not reallocate every time.
func (f *FS) Write(path string, data []byte) {
	f.files[path] = append(f.files[path][:0], data...)
}

// Read returns a copy of the file's content.
func (f *FS) Read(path string) ([]byte, error) {
	data, ok := f.files[path]
	if !ok {
		return nil, fmt.Errorf("sim/fs: %q: %w", path, ErrNotExist)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	return buf, nil
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
func (f *FS) Size(path string) int { return len(f.files[path]) }

// CorruptBit flips one bit in a stored file in place. The heap and
// checkpoint injectors use it. It returns an error if the file is missing
// or the offset is out of range.
func (f *FS) CorruptBit(path string, byteOff int, bit uint) error {
	data, ok := f.files[path]
	if !ok {
		return fmt.Errorf("sim/fs: corrupt %q: %w", path, ErrNotExist)
	}
	if byteOff < 0 || byteOff >= len(data) {
		return fmt.Errorf("sim/fs: corrupt %q: offset %d out of range [0,%d)", path, byteOff, len(data))
	}
	data[byteOff] ^= 1 << (bit % 8)
	return nil
}

// ErrNotExist is returned when a file is absent.
var ErrNotExist = fmt.Errorf("file does not exist")
