package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"reesift/internal/sim"
)

// Checkpoint implements microcheckpointing (Section 3.4): an in-process
// buffer with one disjoint region per element. After each event delivery
// the affected element's state is copied into its region; on every message
// transmission the whole buffer is committed to stable storage (the node's
// RAM disk). Because commits align with message sends, the set of
// checkpoints across the system is always globally consistent and recovery
// rolls back exactly one process.
type Checkpoint struct {
	path    string
	regions map[string][]byte
	// names mirrors the region map keys in sorted order, maintained
	// incrementally so the per-transmission commit encodes without
	// sorting; scratch is the reusable encode buffer. Together they make
	// the steady-state Update/Commit cycle allocation-free.
	names   []string
	scratch []byte
	store   *sim.FS
	commits int
	updates int
}

// NewCheckpoint creates an empty checkpoint buffer that commits to the
// given store under path.
func NewCheckpoint(store *sim.FS, path string) *Checkpoint {
	return &Checkpoint{
		path:    path,
		regions: make(map[string][]byte),
		store:   store,
	}
}

// Update copies an element snapshot into its region of the buffer before
// returning (state is typically the element's scratch encoder, overwritten
// by its next Snapshot). The region's backing array is reused when large
// enough and grows amortised otherwise.
//
//reesift:noalloc
func (c *Checkpoint) Update(element string, state []byte) {
	buf, existed := c.regions[element]
	c.regions[element] = append(buf[:0], state...)
	if !existed {
		c.names = insertName(c.names, element)
	}
	c.updates++
}

// insertName adds s to a sorted name slice if absent.
func insertName(names []string, s string) []string {
	i := sort.SearchStrings(names, s)
	if i < len(names) && names[i] == s {
		return names
	}
	names = append(names, "")
	copy(names[i+1:], names[i:])
	names[i] = s
	return names
}

// Region returns the current buffered snapshot for an element (nil if
// none). The returned slice is the live region; the heap injector uses it
// to corrupt checkpoint contents in place.
func (c *Checkpoint) Region(element string) []byte { return c.regions[element] }

// Elements lists element names with buffered regions, sorted. The caller
// may keep the returned slice; it is a copy of the maintained index.
func (c *Checkpoint) Elements() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Commit serializes the buffer to stable storage. Called by the ARMOR
// runtime on every message transmission.
//
//reesift:noalloc
func (c *Checkpoint) Commit() {
	c.store.Write(c.path, c.encode())
	c.commits++
}

// Commits reports how many commits have been made.
func (c *Checkpoint) Commits() int { return c.commits }

// Updates reports how many element-region updates have been made.
func (c *Checkpoint) Updates() int { return c.updates }

// Load reads the last committed checkpoint from stable storage into the
// buffer. It returns false if no checkpoint exists, and an error if the
// stored image is structurally unparseable (length corruption).
func (c *Checkpoint) Load() (bool, error) {
	data, err := c.store.Read(c.path)
	if err != nil {
		return false, nil // no checkpoint yet: cold start
	}
	regions, err := decodeCheckpoint(data)
	if err != nil {
		return true, err
	}
	c.regions = regions
	c.names = c.names[:0]
	for n := range regions {
		c.names = append(c.names, n)
	}
	sort.Strings(c.names)
	return true, nil
}

// Discard removes the stable checkpoint, used when an ARMOR is cleanly
// uninstalled.
func (c *Checkpoint) Discard() { c.store.Remove(c.path) }

// Path locates the checkpoint in its store.
func (c *Checkpoint) Path() string { return c.path }

// StableSize returns the byte size of the committed image on stable
// storage (0 when nothing has been committed yet).
func (c *Checkpoint) StableSize() int { return c.store.Size(c.path) }

// CorruptStable flips `flips` random bits of the committed checkpoint
// image in stable storage — the injection hook for the paper's "error
// corrupted the FTM's checkpoint prior to crashing" scenario. The
// in-process buffer is untouched; the damage surfaces only when a
// recovery loads the image. It reports false when no image has been
// committed (nothing to corrupt).
func (c *Checkpoint) CorruptStable(rng *rand.Rand, flips int) bool {
	size := c.store.Size(c.path)
	if size == 0 {
		return false
	}
	for i := 0; i < flips; i++ {
		// Size and offset stay in range, so CorruptBit cannot fail.
		_ = c.store.CorruptBit(c.path, rng.Intn(size), uint(rng.Intn(8)))
	}
	return true
}

// encode flattens regions deterministically (sorted by element name) into
// the checkpoint's reusable scratch buffer; the result is valid until the
// next encode and is copied by FS.Write.
func (c *Checkpoint) encode() []byte {
	out := c.scratch[:0]
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.names)))
	for _, n := range c.names {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(n)))
		out = append(out, n...)
		region := c.regions[n]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(region)))
		out = append(out, region...)
	}
	c.scratch = out
	return out
}

func decodeCheckpoint(data []byte) (map[string][]byte, error) {
	regions := make(map[string][]byte)
	off := 0
	read32 := func() (int, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("checkpoint truncated at %d: %w", off, ErrCorrupt)
		}
		v := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		return v, nil
	}
	n, err := read32()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<16 {
		return nil, fmt.Errorf("checkpoint region count %d: %w", n, ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		nameLen, err := read32()
		if err != nil {
			return nil, err
		}
		if nameLen < 0 || off+nameLen > len(data) {
			return nil, fmt.Errorf("checkpoint name length %d: %w", nameLen, ErrCorrupt)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		regionLen, err := read32()
		if err != nil {
			return nil, err
		}
		if regionLen < 0 || off+regionLen > len(data) {
			return nil, fmt.Errorf("checkpoint region length %d: %w", regionLen, ErrCorrupt)
		}
		region := make([]byte, regionLen)
		copy(region, data[off:off+regionLen])
		off += regionLen
		regions[name] = region
	}
	return regions, nil
}
