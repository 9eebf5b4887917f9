package sim

import "time"

// Event kinds. The hot wake sources (sleep/yield wakeups, message
// deliveries, receive timeouts) are dispatched by kind from pooled event
// records instead of per-call closures, so the steady-state event loop
// allocates nothing.
const (
	evFunc    uint8 = iota + 1 // generic callback (external schedulers)
	evWake                     // wake a process parked in Sleep
	evDeliver                  // deliver a message to a process inbox
	evTimeout                  // expire a RecvTimeout wait
)

// event is the pooled kernel-side record of a scheduled callback. Events
// fire in (time, sequence) order, which makes the simulation
// deterministic. Fired and cancelled events return to the kernel's free
// list; gen is bumped on every recycle so stale handles can never touch
// a reused record (ABA safety).
type event struct {
	k     *Kernel
	at    time.Duration
	seq   uint64
	index int
	gen   uint64

	kind uint8
	fn   func() // evFunc
	proc *Proc  // evWake, evTimeout
	tok  uint64 // evWake, evTimeout: waitSeq stamp
	dst  PID    // evDeliver
	msg  Msg    // evDeliver
}

// Event is a cancellable handle to a scheduled kernel callback. The zero
// Event is valid and refers to nothing: Cancel and Reschedule are no-ops
// on it. Handles are values — they stay safe after the underlying pooled
// record is recycled, because the generation stamp no longer matches.
type Event struct {
	e   *event
	gen uint64
}

// live reports whether the handle still refers to a pending event.
//
//reesift:noalloc
func (h Event) live() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.index >= 0
}

// Cancel prevents the event from firing by eagerly removing it from the
// kernel's event heap in O(log n) — heartbeat and watchdog timers are
// cancelled and re-armed constantly, and letting dead events age out at
// their fire time would keep the heap inflated for the whole run. The
// record returns to the kernel's free list. Cancelling an already-fired,
// already-cancelled, or zero handle is a no-op.
//
//reesift:noalloc
func (h Event) Cancel() {
	if !h.live() {
		return
	}
	e := h.e
	e.k.events.remove(e.index)
	e.k.recycle(e)
}

// Pending reports whether the event is still scheduled to fire.
//
//reesift:noalloc
func (h Event) Pending() bool { return h.live() }

// At reports the virtual time at which the event fires (zero for a
// fired, cancelled, or zero handle).
//
//reesift:noalloc
func (h Event) At() time.Duration {
	if !h.live() {
		return 0
	}
	return h.e.at
}

// Reschedule moves a pending event to fire d from now, sifting it in
// place instead of cancel+push — half the heap operations for periodic
// timers that re-arm on every beat. The event keeps its payload but is
// assigned a fresh sequence number, so the resulting fire order is
// byte-identical to Cancel followed by an equivalent Schedule. It
// reports false when the event has already fired or been cancelled (the
// caller must schedule anew).
//
//reesift:noalloc
func (h Event) Reschedule(d time.Duration) bool {
	if !h.live() {
		return false
	}
	e := h.e
	k := e.k
	if d < 0 {
		d = 0
	}
	e.at = k.now + d
	e.seq = k.seq
	k.seq++
	k.events.fix(e.index)
	return true
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than wrapping container/heap to avoid interface boxing on the
// kernel's hottest path.
type eventHeap []*event

//reesift:noalloc
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//reesift:noalloc
func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	i := len(*h) - 1
	(*h)[i].index = i
	h.up(i)
}

// peek returns the minimum event without removing it.
//
//reesift:noalloc
func (h eventHeap) peek() (*event, bool) {
	if len(h) == 0 {
		return nil, false
	}
	return h[0], true
}

//reesift:noalloc
func (h *eventHeap) pop() (*event, bool) {
	old := *h
	n := len(old)
	if n == 0 {
		return nil, false
	}
	top := old[0]
	old[0] = old[n-1]
	old[0].index = 0
	old[n-1] = nil
	*h = old[:n-1]
	if len(*h) > 0 {
		h.down(0)
	}
	top.index = -1
	return top, true
}

// remove deletes the event at heap position i, restoring heap order by
// sifting the swapped-in tail element whichever way it needs to go.
//
//reesift:noalloc
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i < 0 || i > n {
		return
	}
	old[i].index = -1
	if i != n {
		old[i] = old[n]
		old[i].index = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.fix(i)
	}
}

// fix restores heap order after the event at position i changed priority.
//
//reesift:noalloc
func (h eventHeap) fix(i int) {
	h.down(i)
	h.up(i)
}

//reesift:noalloc
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

//reesift:noalloc
func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

//reesift:noalloc
func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
