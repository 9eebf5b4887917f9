package core

import "testing"

// A freed box comes back zeroed, is the next one Box hands out, and cannot
// be freed a second time.
func TestBoxesReuseAndDoubleFree(t *testing.T) {
	var b Boxes
	first := b.Box(Envelope{Src: 1, Dst: 2, Seq: 3, Event: Event{Kind: evInc, Data: "payload"}, Hops: 2})
	other := b.Box(Envelope{Src: 4})
	if first == other {
		t.Fatal("two live boxes share one pointer")
	}
	b.Free(first)
	if first.Event.Data != nil || first.Src != 0 || first.Hops != 0 {
		t.Fatalf("freed box still holds %+v", *first)
	}
	if made, free := b.Stats(); made != 2 || free != 1 {
		t.Fatalf("Stats = %d made, %d free; want 2, 1", made, free)
	}
	again := b.Box(Envelope{Src: 5, Dst: 6})
	if again != first {
		t.Fatal("Box did not reuse the box freed last")
	}
	if *again != (Envelope{Src: 5, Dst: 6}) {
		t.Fatalf("reused box holds %+v", *again)
	}
	if made, free := b.Stats(); made != 2 || free != 0 {
		t.Fatalf("Stats after reuse = %d made, %d free; want 2, 0", made, free)
	}

	b.Free(other)
	defer func() {
		if recover() != errFreedTwice {
			t.Fatal("a second Free of one box did not panic")
		}
		if _, free := b.Stats(); free != 1 {
			t.Fatalf("double free pushed the box again: %d free", free)
		}
	}()
	b.Free(other)
}

// A nil *Boxes allocates every box and frees none: a by-value lower layer
// and the package's own tests run without a list.
func TestNilBoxesAllocateAndKeep(t *testing.T) {
	var b *Boxes
	box := b.Box(Envelope{Src: 7})
	b.Free(box)
	if box.Src != 7 {
		t.Fatal("a nil list zeroed the box it was handed")
	}
	if b.Box(Envelope{}) == box {
		t.Fatal("a nil list reused a box")
	}
}

// Reclaim takes back every box the list made, held ones included, zeroed
// and marked free, and hands them out again without making a new one.
func TestBoxesReclaimTakesBackHeldBoxes(t *testing.T) {
	var b Boxes
	held := b.Box(Envelope{Src: 1, Event: Event{Kind: evInc, Data: "payload"}})
	freed := b.Box(Envelope{Src: 2})
	b.Free(freed)
	b.Reclaim()
	if made, free := b.Stats(); made != 2 || free != 2 {
		t.Fatalf("Stats after Reclaim = %d made, %d free; want 2, 2", made, free)
	}
	if held.Event.Data != nil || held.Src != 0 || !held.freed {
		t.Fatalf("reclaimed box still holds %+v", *held)
	}
	one, two := b.Box(Envelope{Src: 3}), b.Box(Envelope{Src: 4})
	if one == two || (one != held && one != freed) || (two != held && two != freed) {
		t.Fatal("Box did not hand out the reclaimed boxes")
	}
	if made, free := b.Stats(); made != 2 || free != 0 {
		t.Fatalf("Stats after reuse = %d made, %d free; want 2, 0", made, free)
	}
}
