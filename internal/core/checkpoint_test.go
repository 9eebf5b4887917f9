package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"reesift/internal/sim"
)

func TestCheckpointCommitAndLoad(t *testing.T) {
	fs := sim.NewFS()
	c := NewCheckpoint(fs, "ckpt/1")
	c.Update("alpha", []byte{1, 2})
	c.Update("beta", []byte{3})
	c.Commit()

	c2 := NewCheckpoint(fs, "ckpt/1")
	found, err := c2.Load()
	if !found || err != nil {
		t.Fatalf("load: found=%v err=%v", found, err)
	}
	if got := c2.Region("alpha"); len(got) != 2 || got[1] != 2 {
		t.Fatalf("alpha = %v", got)
	}
	if got := c2.Region("beta"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("beta = %v", got)
	}
}

func TestCheckpointLoadMissing(t *testing.T) {
	c := NewCheckpoint(sim.NewFS(), "nope")
	found, err := c.Load()
	if found || err != nil {
		t.Fatalf("found=%v err=%v", found, err)
	}
}

func TestCheckpointUpdateOverwritesRegion(t *testing.T) {
	c := NewCheckpoint(sim.NewFS(), "x")
	c.Update("e", []byte{1})
	c.Update("e", []byte{9, 9})
	if got := c.Region("e"); len(got) != 2 || got[0] != 9 {
		t.Fatalf("region = %v", got)
	}
	if c.Updates() != 2 {
		t.Fatalf("updates = %d", c.Updates())
	}
}

func TestCheckpointUpdateCopiesInput(t *testing.T) {
	c := NewCheckpoint(sim.NewFS(), "x")
	buf := []byte{1, 2, 3}
	c.Update("e", buf)
	buf[0] = 99
	if c.Region("e")[0] != 1 {
		t.Fatal("Update aliased caller buffer")
	}
}

func TestCheckpointStructuralCorruptionDetectedAtLoad(t *testing.T) {
	fs := sim.NewFS()
	c := NewCheckpoint(fs, "ckpt/9")
	c.Update("element", []byte{1, 2, 3, 4})
	c.Commit()
	// Corrupt the region-length word (bytes after count+name).
	if err := fs.CorruptBit("ckpt/9", 2, 6); err != nil {
		t.Fatal(err)
	}
	c2 := NewCheckpoint(fs, "ckpt/9")
	found, err := c2.Load()
	if !found {
		t.Fatal("checkpoint should exist")
	}
	if err == nil {
		// The flipped bit may have landed harmlessly; force a clearly
		// structural corruption instead.
		data, _ := fs.Read("ckpt/9")
		data[0] = 0xFF // region count explodes
		fs.Write("ckpt/9", data)
		if _, err := (NewCheckpoint(fs, "ckpt/9")).Load(); err == nil {
			t.Fatal("structural corruption not detected")
		}
	}
}

func TestCheckpointRoundTripProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		fs := sim.NewFS()
		c := NewCheckpoint(fs, "p")
		c.Update("a", a)
		c.Update("b", b)
		c.Commit()
		c2 := NewCheckpoint(fs, "p")
		found, err := c2.Load()
		if !found || err != nil {
			return false
		}
		ga, gb := c2.Region("a"), c2.Region("b")
		if len(ga) != len(a) || len(gb) != len(b) {
			return false
		}
		for i := range a {
			if ga[i] != a[i] {
				return false
			}
		}
		for i := range b {
			if gb[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointDiscard(t *testing.T) {
	fs := sim.NewFS()
	c := NewCheckpoint(fs, "d")
	c.Update("e", []byte{1})
	c.Commit()
	c.Discard()
	found, _ := NewCheckpoint(fs, "d").Load()
	if found {
		t.Fatal("discarded checkpoint still present")
	}
}

func TestCommStateSequencing(t *testing.T) {
	c := newCommState()
	if got := c.assign(5); got != 1 {
		t.Fatalf("first seq = %d", got)
	}
	if got := c.assign(5); got != 2 {
		t.Fatalf("second seq = %d", got)
	}
	if got := c.assign(6); got != 1 {
		t.Fatalf("per-peer seq = %d", got)
	}
}

func TestCommStateDuplicateSuppression(t *testing.T) {
	c := newCommState()
	if c.seen(1, 1) {
		t.Fatal("unseen reported seen")
	}
	c.markSeen(1, 1)
	if !c.seen(1, 1) {
		t.Fatal("seen not recorded")
	}
	// Out of order: 3 before 2.
	c.markSeen(1, 3)
	if !c.seen(1, 3) || c.seen(1, 2) {
		t.Fatal("out-of-order tracking wrong")
	}
	c.markSeen(1, 2)
	if !c.seen(1, 2) {
		t.Fatal("gap fill failed")
	}
	if !slices.Equal(c.recv, []seqRow{{1, 3}}) {
		t.Fatalf("window did not advance: recv=%v", c.recv)
	}
	if len(c.extra) != 0 {
		t.Fatalf("out-of-order pairs not folded: extra=%v", c.extra)
	}
}

func TestCommStateSnapshotRestore(t *testing.T) {
	c := newCommState()
	c.assign(2)
	c.assign(2)
	c.assign(7)
	c.markSeen(3, 1)
	c.markSeen(3, 5) // out of order survives snapshot
	snap := c.Snapshot()

	c2 := newCommState()
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c2.sent, []seqRow{{2, 2}, {7, 1}}) {
		t.Fatalf("sent = %v", c2.sent)
	}
	if !bytes.Equal(c2.Snapshot(), snap) {
		t.Fatal("restored state re-encodes differently")
	}
	if !c2.seen(3, 1) || !c2.seen(3, 5) || c2.seen(3, 2) {
		t.Fatal("seen state wrong after restore")
	}
}

func TestCommStateRestoreRejectsGarbage(t *testing.T) {
	c := newCommState()
	if err := c.Restore([]byte{0xde, 0xad}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCorruptStableFlipsCommittedImage(t *testing.T) {
	store := sim.NewFS()
	c := NewCheckpoint(store, "ckpt/test")
	rng := rand.New(rand.NewSource(1))

	// Nothing committed yet: nothing to corrupt.
	if c.CorruptStable(rng, 3) {
		t.Fatal("corrupted a checkpoint that was never committed")
	}
	if c.StableSize() != 0 {
		t.Fatalf("StableSize = %d before any commit", c.StableSize())
	}

	c.Update("elem", []byte{1, 2, 3, 4})
	c.Commit()
	before, _ := store.Read(c.Path())
	if !c.CorruptStable(rng, 3) {
		t.Fatal("CorruptStable found no committed image")
	}
	after, _ := store.Read(c.Path())
	if len(after) != len(before) {
		t.Fatalf("corruption changed image size: %d -> %d", len(before), len(after))
	}
	diff := 0
	for i := range before {
		if before[i] != after[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("three bit flips left the image unchanged")
	}
	// The in-process buffer must be untouched: the damage surfaces only
	// on a later restore.
	if got := c.Region("elem"); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("in-process region perturbed: %v", got)
	}
	if c.StableSize() != len(after) {
		t.Fatalf("StableSize = %d, want %d", c.StableSize(), len(after))
	}
}

func TestCorruptStableDeterministic(t *testing.T) {
	image := func(seed int64) []byte {
		store := sim.NewFS()
		c := NewCheckpoint(store, "ckpt/d")
		c.Update("a", bytes.Repeat([]byte{0xAA}, 64))
		c.Commit()
		c.CorruptStable(rand.New(rand.NewSource(seed)), 4)
		data, _ := store.Read("ckpt/d")
		return data
	}
	if !bytes.Equal(image(5), image(5)) {
		t.Fatal("same RNG seed produced different corruption")
	}
	if bytes.Equal(image(5), image(6)) {
		t.Fatal("different RNG seeds produced identical corruption")
	}
}
