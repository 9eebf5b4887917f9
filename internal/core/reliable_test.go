package core

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"
)

func newCommState() *commState {
	c := new(commState)
	c.reset()
	return c
}

// refComm is the reliable channel's state as maps, encoded and decoded by
// hand: the layout commState's sorted tables replaced, kept as the
// reference FuzzCommState holds them to.
type refComm struct {
	nextSeq   map[AID]uint64
	lastSeen  map[AID]uint64
	extraSeen map[AID]map[uint64]bool
}

func newRefComm() *refComm {
	return &refComm{map[AID]uint64{}, map[AID]uint64{}, map[AID]map[uint64]bool{}}
}

func (c *refComm) assign(dst AID) uint64 {
	c.nextSeq[dst]++
	return c.nextSeq[dst]
}

func (c *refComm) seen(src AID, seq uint64) bool {
	return seq <= c.lastSeen[src] || c.extraSeen[src][seq]
}

func (c *refComm) markSeen(src AID, seq uint64) {
	if seq <= c.lastSeen[src] {
		return
	}
	if seq == c.lastSeen[src]+1 {
		c.lastSeen[src] = seq
		extra := c.extraSeen[src]
		for extra[c.lastSeen[src]+1] {
			delete(extra, c.lastSeen[src]+1)
			c.lastSeen[src]++
		}
		if len(extra) == 0 {
			delete(c.extraSeen, src)
		}
		return
	}
	if c.extraSeen[src] == nil {
		c.extraSeen[src] = make(map[uint64]bool)
	}
	c.extraSeen[src][seq] = true
}

func (c *refComm) forgetPeer(peer AID) {
	delete(c.nextSeq, peer)
	delete(c.lastSeen, peer)
	delete(c.extraSeen, peer)
}

func (c *refComm) snapshot() []byte {
	var e Encoder
	for _, m := range []map[AID]uint64{c.nextSeq, c.lastSeen} {
		e.PutU64(uint64(len(m)))
		for _, k := range slices.Sorted(maps.Keys(m)) {
			e.PutU64(uint64(k))
			e.PutU64(m[k])
		}
	}
	var pairs [][2]uint64
	for src, seqs := range c.extraSeen {
		for seq := range seqs {
			pairs = append(pairs, [2]uint64{uint64(src), seq})
		}
	}
	slices.SortFunc(pairs, func(x, y [2]uint64) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	e.PutU64(uint64(len(pairs)))
	for _, p := range pairs {
		e.PutU64(p[0])
		e.PutU64(p[1])
	}
	return e.Bytes()
}

// restore decodes a region into a new refComm, or reports why it cannot.
func restoreRefComm(data []byte) (*refComm, error) {
	c := newRefComm()
	d := NewDecoder(data)
	for _, m := range []map[AID]uint64{c.nextSeq, c.lastSeen} {
		n := d.U64()
		if n > 1<<20 {
			d.fail("comm map size %d", n)
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			k := AID(d.U64())
			m[k] = d.U64()
		}
	}
	n := d.U64()
	if n > 1<<20 {
		d.fail("comm extra size %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		src := AID(d.U64())
		seq := d.U64()
		if c.extraSeen[src] == nil {
			c.extraSeen[src] = make(map[uint64]bool)
		}
		c.extraSeen[src][seq] = true
	}
	return c, d.Done()
}

// commMachine drives a commState and a refComm through the same steps and
// fails at the first step on which they disagree: a sequence number, a
// duplicate verdict, a restore's acceptance or the region's bytes. A step
// is an op byte, its low two bits the kind and the next two the peer,
// followed by a seq byte for markSeen and two offset bytes for a restore
// of the current region with one bit flipped; the other restore takes
// image whole. A rejected restore leaves the reference as it was, as a
// rejected Schema.Restore does.
func commMachine(t *testing.T, ops, image []byte) {
	got, want := newCommState(), newRefComm()
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for step := 0; len(ops) > 0; step++ {
		op := next()
		peer := AID(op>>2&3 + 1)
		switch op & 3 {
		case 0:
			if g, w := got.assign(peer), want.assign(peer); g != w {
				t.Fatalf("step %d: assign(%d) = %d, reference %d", step, peer, g, w)
			}
		case 1:
			seq := uint64(next() & 15)
			if g, w := got.seen(peer, seq), want.seen(peer, seq); g != w {
				t.Fatalf("step %d: seen(%d, %d) = %v, reference %v", step, peer, seq, g, w)
			}
			got.markSeen(peer, seq)
			want.markSeen(peer, seq)
		case 2:
			got.forgetPeer(peer)
			want.forgetPeer(peer)
		case 3:
			region := image
			if op&4 != 0 {
				region = bytes.Clone(want.snapshot())
				if off := next()<<8 | next(); len(region) > 0 {
					off %= len(region) * 8
					region[off/8] ^= 1 << (off % 8)
				}
			}
			ref, werr := restoreRefComm(region)
			gerr := got.Restore(region)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d: restore of %x: %v, reference %v", step, region, gerr, werr)
			}
			if werr == nil {
				want = ref
			}
		}
		if g, w := got.Snapshot(), want.snapshot(); !bytes.Equal(g, w) {
			t.Fatalf("step %d (op %#x): region\n%x\nreference\n%x", step, op, g, w)
		}
	}
}

// FuzzCommState holds the sorted tables to the map-based reference over
// random sends, receipts, forgotten peers and restores of arbitrary or
// bit-flipped regions.
func FuzzCommState(f *testing.F) {
	ref := newRefComm()
	ref.assign(2)
	ref.assign(2)
	ref.assign(7)
	for _, p := range [][2]uint64{{3, 1}, {3, 5}, {3, 7}, {9, 4}, {1, 2}, {3, 6}} {
		ref.markSeen(AID(p[0]), p[1])
	}
	populated := bytes.Clone(ref.snapshot())
	// Out of order and repeated: peers 5, 1, 5 and pairs (4, 9), (2, 3),
	// (4, 9), as a corrupted key could leave them.
	var e Encoder
	for _, w := range []uint64{3, 5, 1, 1, 2, 5, 3, 0, 3, 4, 9, 2, 3, 4, 9} {
		e.PutU64(w)
	}
	unsorted := bytes.Clone(e.Bytes())
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 0, 4, 0, 5, 3, 1, 2, 1, 1, 1, 4, 5, 6, 2}, populated)
	f.Add([]byte{0, 1, 1, 1, 3, 3, 1, 2, 1, 1, 0, 7, 0, 9, 6, 0, 3}, unsorted)
	f.Add([]byte{3, 7, 0, 3, 7, 1, 40, 5, 9, 3, 1, 3}, populated)
	f.Fuzz(func(t *testing.T, ops, image []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		commMachine(t, ops, image)
	})
}

// TestCommStateRefusesOversizedCount holds a decode to the bytes it has: a
// 40-byte region claiming 1<<20 peers, within the bound, is refused
// before its table is sized to the claim (16 MiB of rows). Not parallel:
// TotalAlloc counts the whole process.
func TestCommStateRefusesOversizedCount(t *testing.T) {
	var e Encoder
	for _, w := range []uint64{1 << 20, 1, 1, 2} {
		e.PutU64(w)
	}
	region := append(e.Bytes(), 0, 0, 0, 0)
	if len(region) != 40 {
		t.Fatalf("the region is %d bytes", len(region))
	}
	c := newCommState()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.Restore(region)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("restore = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("refusing the region allocated %d bytes", n)
	}
}

// TestCommStateRestoresInPlace restores a reused comm state into the
// tables it already has, the way a reinstalled ARMOR's runtime restores.
// Not parallel: AllocsPerRun counts the whole process.
func TestCommStateRestoresInPlace(t *testing.T) {
	c := newCommState()
	c.assign(4)
	c.markSeen(3, 1)
	c.markSeen(3, 5)
	region := bytes.Clone(c.Snapshot())
	allocs := testing.AllocsPerRun(100, func() {
		c.reset()
		if err := c.Restore(region); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a restore allocates %.0f objects", allocs)
	}
	if !bytes.Equal(c.Snapshot(), region) {
		t.Fatalf("restored region\n%x\nwant\n%x", c.Snapshot(), region)
	}
}
