package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
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
	path string
	// regions holds every region this checkpoint has held, live or not,
	// sorted by name: a region's buffer outlives Load and aim and is
	// reused by name, and a commit encodes without sorting. With the
	// reusable encode scratch they make the steady-state Update/Commit
	// cycle allocation-free.
	regions []region
	scratch []byte
	store   *sim.FS
	commits int
	updates int
}

// region is one element's buffered snapshot. A region that is not live is
// absent from the checkpoint; its buffer waits for the name's next use.
type region struct {
	name string
	buf  []byte
	live bool
}

// NewCheckpoint creates an empty checkpoint buffer that commits to the
// given store under path.
func NewCheckpoint(store *sim.FS, path string) *Checkpoint {
	c := new(Checkpoint)
	c.aim(store, path)
	return c
}

// aim points the checkpoint at a store and path and empties it: no region
// is live and the counters restart. Region buffers and the encode scratch
// are kept for reuse.
func (c *Checkpoint) aim(store *sim.FS, path string) {
	c.store, c.path = store, path
	c.dropRegions()
	c.commits, c.updates = 0, 0
}

// dropRegions makes every region absent, keeping the buffers.
func (c *Checkpoint) dropRegions() {
	for i := range c.regions {
		c.regions[i].live = false
	}
}

// find locates the region named name, or where it goes.
func (c *Checkpoint) find(name string) (int, bool) {
	i := sort.Search(len(c.regions), func(i int) bool { return c.regions[i].name >= name })
	return i, i < len(c.regions) && c.regions[i].name == name
}

// Update copies an element snapshot into its region of the buffer before
// returning (state is typically the element's scratch encoder, overwritten
// by its next Snapshot). The region's backing array is reused when large
// enough and grows amortised otherwise.
//
//reesift:noalloc
func (c *Checkpoint) Update(element string, state []byte) {
	i, found := c.find(element)
	if !found {
		c.regions = slices.Insert(c.regions, i, region{name: element})
	}
	r := &c.regions[i]
	r.buf = append(r.buf[:0], state...)
	r.live = true
	c.updates++
}

// Region returns the current buffered snapshot for an element (nil if
// none). The returned slice is the live region; the heap injector uses it
// to corrupt checkpoint contents in place.
func (c *Checkpoint) Region(element string) []byte {
	if i, found := c.find(element); found && c.regions[i].live {
		return c.regions[i].buf
	}
	return nil
}

// Elements lists element names with buffered regions, sorted, in a slice
// the caller may keep.
func (c *Checkpoint) Elements() []string {
	out := make([]string, 0, len(c.regions))
	for _, r := range c.regions {
		if r.live {
			out = append(out, r.name)
		}
	}
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
// stored image is structurally unparseable (length corruption), in which
// case the buffer is left as it was. The image's regions are copied into
// the buffers kept for their names.
func (c *Checkpoint) Load() (bool, error) {
	data, err := c.store.Read(c.path)
	if err != nil {
		return false, nil // no checkpoint yet: cold start
	}
	if err := walkCheckpoint(data, nil); err != nil {
		return true, err
	}
	c.dropRegions()
	_ = walkCheckpoint(data, c.loadRegion) // the image parsed above
	return true, nil
}

// loadRegion copies one region of a loaded image into the buffer kept
// for its name and makes it live. A loaded region is never nil, even when
// empty.
func (c *Checkpoint) loadRegion(name, data []byte) {
	i, found := c.find(string(name))
	if !found {
		c.regions = slices.Insert(c.regions, i, region{name: string(name)})
	}
	r := &c.regions[i]
	if r.buf == nil {
		r.buf = make([]byte, 0, len(data))
	}
	r.buf = append(r.buf[:0], data...)
	r.live = true
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

// encode flattens the live regions, in name order, into the checkpoint's
// reusable scratch buffer; the result is valid until the next encode and
// is copied by FS.Write.
func (c *Checkpoint) encode() []byte {
	out := append(c.scratch[:0], 0, 0, 0, 0) // the region count, set below
	live := 0
	for _, r := range c.regions {
		if !r.live {
			continue
		}
		live++
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.name)))
		out = append(out, r.name...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.buf)))
		out = append(out, r.buf...)
	}
	binary.LittleEndian.PutUint32(out, uint32(live))
	c.scratch = out
	return out
}

// walkCheckpoint parses an encoded image, calling fn (when non-nil) with
// each region's name and bytes, which alias data. It reports the first
// structural error; regions before it have already been passed to fn.
func walkCheckpoint(data []byte, fn func(name, region []byte)) error {
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
		return err
	}
	if n < 0 || n > 1<<16 {
		return fmt.Errorf("checkpoint region count %d: %w", n, ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		nameLen, err := read32()
		if err != nil {
			return err
		}
		if nameLen < 0 || off+nameLen > len(data) {
			return fmt.Errorf("checkpoint name length %d: %w", nameLen, ErrCorrupt)
		}
		name := data[off : off+nameLen]
		off += nameLen
		regionLen, err := read32()
		if err != nil {
			return err
		}
		if regionLen < 0 || off+regionLen > len(data) {
			return fmt.Errorf("checkpoint region length %d: %w", regionLen, ErrCorrupt)
		}
		if fn != nil {
			fn(name, data[off:off+regionLen])
		}
		off += regionLen
	}
	return nil
}
