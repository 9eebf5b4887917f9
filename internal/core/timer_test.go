package core

import (
	"testing"
	"time"

	"reesift/internal/sim"
)

// scriptElem runs test-supplied closures with the element context: one at
// Start, one per delivered timer.
type scriptElem struct {
	onStart func(ctx *Ctx)
	onTimer func(ctx *Ctx, tag interface{})
	fired   []interface{}
}

func (s *scriptElem) Name() string               { return "script" }
func (s *scriptElem) Subscriptions() []EventKind { return nil }
func (s *scriptElem) Snapshot() []byte           { return nil }
func (s *scriptElem) Restore([]byte) error       { return nil }
func (s *scriptElem) Check() error               { return nil }
func (s *scriptElem) Start(ctx *Ctx)             { s.onStart(ctx) }

func (s *scriptElem) Handle(ctx *Ctx, ev Event) {
	if ev.Kind != EventTimer {
		return
	}
	s.fired = append(s.fired, ev.Data)
	if s.onTimer != nil {
		s.onTimer(ctx, ev.Data)
	}
}

// spawnScript runs an ARMOR whose only element is el.
func spawnScript(t *testing.T, el *scriptElem) (*sim.Kernel, *Armor, sim.PID) {
	t.Helper()
	k := newCoreKernel(t)
	a := New(Config{ID: 1, Name: "script", Elements: []Element{el}})
	return k, a, k.Spawn(k.AddNode("a"), "script", sim.NoPID, a.Run)
}

// distinctTimers fails if the pool holds one record twice — what a double
// free would leave behind.
func distinctTimers(t *testing.T, a *Armor) {
	t.Helper()
	seen := make(map[*timerRec]bool)
	for _, rec := range a.timerFree {
		if seen[rec] {
			t.Fatalf("timer record %p pooled twice", rec)
		}
		seen[rec] = true
	}
}

func TestTimerCancelPoolsRecordOnce(t *testing.T) {
	el := &scriptElem{}
	var tm Timer
	el.onStart = func(ctx *Ctx) { tm = ctx.After("script", time.Second, "never") }
	k, a, _ := spawnScript(t, el)
	k.Run(100 * time.Millisecond)
	if !tm.ev.Pending() || len(a.timerFree) != 0 {
		t.Fatalf("armed: pending=%v pool=%d", tm.ev.Pending(), len(a.timerFree))
	}
	tm.Cancel()
	tm.Cancel() // stale handle: no second free
	if tm.ev.Pending() || tm.Reschedule(time.Second) {
		t.Fatal("cancelled timer still live")
	}
	if len(a.timerFree) != 1 {
		t.Fatalf("pool holds %d records after cancel, want 1", len(a.timerFree))
	}
	k.Run(5 * time.Second)
	if len(el.fired) != 0 {
		t.Fatalf("cancelled timer fired: %v", el.fired)
	}
	var zero Timer
	zero.Cancel()
	if zero.ev.Pending() || zero.Reschedule(time.Second) {
		t.Fatal("zero Timer is live")
	}
}

func TestTimerRescheduleFiresOnceAtNewTime(t *testing.T) {
	el := &scriptElem{}
	var tm Timer
	var firedAt time.Duration
	el.onStart = func(ctx *Ctx) { tm = ctx.After("script", time.Second, "beat") }
	el.onTimer = func(ctx *Ctx, _ interface{}) { firedAt = ctx.Now() }
	k, a, _ := spawnScript(t, el)
	k.Run(500 * time.Millisecond)
	if !tm.Reschedule(3 * time.Second) {
		t.Fatal("pending timer refused Reschedule")
	}
	k.Run(10 * time.Second)
	if len(el.fired) != 1 || el.fired[0] != "beat" {
		t.Fatalf("fired = %v, want one beat", el.fired)
	}
	if want := 3500 * time.Millisecond; firedAt < want || firedAt > want+time.Millisecond {
		t.Fatalf("fired at %v, want ~%v", firedAt, want)
	}
	if tm.Reschedule(time.Second) {
		t.Fatal("fired timer accepted Reschedule")
	}
	tm.Cancel() // fired: the dispatch already pooled the record
	if len(a.timerFree) != 1 {
		t.Fatalf("pool holds %d records, want 1", len(a.timerFree))
	}
}

// A handle whose record went back to the pool and out again must not touch
// the timer that now owns the record.
func TestTimerStaleHandleIgnoresReusedRecord(t *testing.T) {
	el := &scriptElem{}
	var first, second Timer
	el.onStart = func(ctx *Ctx) {
		first = ctx.After("script", time.Second, "first")
		first.Cancel()
		second = ctx.After("script", time.Second, "second")
	}
	k, a, _ := spawnScript(t, el)
	k.Run(100 * time.Millisecond)
	if first.rec != second.rec {
		t.Fatal("cancelled record was not reused")
	}
	first.Cancel()
	if first.Reschedule(time.Hour) {
		t.Fatal("stale handle rescheduled the reused record's timer")
	}
	if !second.ev.Pending() {
		t.Fatal("stale handle cancelled the reused record's timer")
	}
	k.Run(5 * time.Second)
	if len(el.fired) != 1 || el.fired[0] != "second" {
		t.Fatalf("fired = %v, want [second]", el.fired)
	}
	distinctTimers(t, a)
}

// Cancelling a timer that has fired into the inbox but is not dispatched
// yet leaves it to be delivered, and pools its record exactly once.
func TestTimerCancelAfterFireStillDelivers(t *testing.T) {
	el := &scriptElem{}
	var late Timer
	el.onStart = func(ctx *Ctx) {
		ctx.After("script", time.Second, "early")
		late = ctx.After("script", 2*time.Second, "late")
	}
	el.onTimer = func(ctx *Ctx, tag interface{}) {
		if tag == "early" {
			ctx.Proc.Sleep(3 * time.Second) // late fires into the inbox meanwhile
			if late.ev.Pending() {
				t.Error("late still pending after its fire time")
			}
			late.Cancel()
		}
	}
	k, a, _ := spawnScript(t, el)
	k.Run(10 * time.Second)
	if len(el.fired) != 2 || el.fired[1] != "late" {
		t.Fatalf("fired = %v, want [early late]", el.fired)
	}
	if len(a.timerFree) != 2 {
		t.Fatalf("pool holds %d records, want 2", len(a.timerFree))
	}
	distinctTimers(t, a)
}

func TestTimerOfDeadArmorIsDropped(t *testing.T) {
	el := &scriptElem{}
	var tm Timer
	el.onStart = func(ctx *Ctx) { tm = ctx.After("script", time.Second, "orphan") }
	k, a, pid := spawnScript(t, el)
	k.Run(100 * time.Millisecond)
	k.Kill(pid, "SIGINT")
	k.Run(5 * time.Second)
	if len(el.fired) != 0 {
		t.Fatalf("dead ARMOR handled %v", el.fired)
	}
	tm.Cancel() // fired into the void: nothing to free
	if len(a.timerFree) != 0 {
		t.Fatalf("pool holds %d records, want 0", len(a.timerFree))
	}
}

// Reset pools every record a dead incarnation left armed. The dead
// incarnation's kernel events stay pending and are dropped at the dead
// process, a stale handle cannot free its reused record, and the next
// incarnation arms from the pool without making a record.
func TestResetPoolsArmedTimers(t *testing.T) {
	el := &scriptElem{}
	var stale Timer
	el.onStart = func(ctx *Ctx) {
		stale = ctx.After("script", time.Second, "orphan")
		ctx.After("script", 2*time.Second, "orphan")
	}
	k, a, pid := spawnScript(t, el)
	k.Run(100 * time.Millisecond)
	k.Kill(pid, "SIGINT")
	k.Run(200 * time.Millisecond)
	if len(a.timers) != 2 || len(a.timerFree) != 0 || !stale.ev.Pending() {
		t.Fatalf("before Reset: %d records made, %d pooled, stale pending %v; want 2, 0, true",
			len(a.timers), len(a.timerFree), stale.ev.Pending())
	}

	next := &scriptElem{}
	var fresh Timer
	next.onStart = func(ctx *Ctx) { fresh = ctx.After("script", 1500*time.Millisecond, "fresh") }
	a.Reset(Config{ID: 1, Name: "script", Elements: []Element{next}})
	if len(a.timerFree) != 2 {
		t.Fatalf("Reset pooled %d of the dead incarnation's 2 armed records", len(a.timerFree))
	}
	k.Spawn(k.Node("a"), "script", sim.NoPID, a.Run)
	k.Run(300 * time.Millisecond)
	if len(a.timerFree) != 1 {
		t.Fatalf("the new incarnation did not arm from the pool: %d pooled", len(a.timerFree))
	}
	stale.Cancel() // its event is still pending, but its record is reused
	if !fresh.ev.Pending() || len(a.timerFree) != 1 || len(a.timers) != 2 {
		t.Fatalf("stale Cancel: fresh pending %v, %d pooled of %d made; want true, 1 of 2",
			fresh.ev.Pending(), len(a.timerFree), len(a.timers))
	}
	distinctTimers(t, a)
	k.Run(5 * time.Second)
	if len(el.fired) != 0 || len(next.fired) != 1 || next.fired[0] != "fresh" {
		t.Fatalf("fired: dead incarnation %v, new one %v; want none and [fresh]", el.fired, next.fired)
	}
	if len(a.timerFree) != 2 {
		t.Fatalf("pool holds %d records, want 2", len(a.timerFree))
	}
	distinctTimers(t, a)
}

func TestTimerForUnknownElementIsDropped(t *testing.T) {
	el := &scriptElem{}
	el.onStart = func(ctx *Ctx) { ctx.After("no-such-element", time.Second, "lost") }
	k, a, _ := spawnScript(t, el)
	k.Run(5 * time.Second)
	if len(el.fired) != 0 {
		t.Fatalf("fired = %v", el.fired)
	}
	if len(a.timerFree) != 1 {
		t.Fatalf("pool holds %d records, want 1", len(a.timerFree))
	}
}

// hopWire stands in for the daemons: it boxes each transmission once, lets
// a hop mutate the box in place, and can lose it afterwards.
type hopWire struct {
	pids  map[AID]sim.PID
	sent  []Envelope  // every transmission, as the ARMOR handed it down
	boxes []*Envelope // what travelled
	lose  func(n int) bool
}

func (w *hopWire) sendLower(p *sim.Proc, env Envelope) {
	w.sent = append(w.sent, env)
	box := &env // a heap copy of its own, per transmission
	w.boxes = append(w.boxes, box)
	box.Hops += 2 // two daemons forwarded it
	if w.lose != nil && w.lose(len(w.sent)) {
		box.Corrupt = true // whatever else happened to it on the way
		return
	}
	if pid, ok := w.pids[env.Dst]; ok {
		p.Send(pid, box)
	}
}

// The sender's unacked copy is its own: what the hops did to a lost
// transmission never shows in the retransmission.
func TestRetransmissionUnaffectedByHopMutation(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &hopWire{pids: make(map[AID]sim.PID)}
	w.lose = func(n int) bool { return n == 1 }

	rxElem := &counterElem{name: "rx", limit: 10}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: w.sendLower})
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)
	el := &scriptElem{}
	el.onStart = func(ctx *Ctx) { ctx.Send(2, evInc, nil) }
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{el}, SendLower: w.sendLower, Epoch: 3})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)

	k.Run(time.Second)
	key := ackKey{dst: 2, seq: 1}
	kept, ok := tx.unacked[key]
	if !ok || kept.Hops != 0 || kept.Corrupt {
		t.Fatalf("unacked copy after a mutated, lost transmission: %+v (present=%v)", kept, ok)
	}
	k.Run(5 * time.Second)
	if rxElem.count != 1 {
		t.Fatalf("rx count = %d, want 1", rxElem.count)
	}
	// sent[0] and sent[1] are tx's two transmissions (rx's ack follows).
	if len(w.sent) < 2 || w.sent[0] != w.sent[1] {
		t.Fatalf("retransmission differs from the first transmission:\n%+v\n%+v", w.sent[0], w.sent[1])
	}
	if w.boxes[0] == w.boxes[1] {
		t.Fatal("retransmission reused the box that travelled")
	}
	if _, still := tx.unacked[key]; still {
		t.Fatal("send still unacked after the retransmission was delivered")
	}
}
