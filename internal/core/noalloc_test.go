package core

import (
	"testing"
	"time"

	"reesift/internal/analysis/noalloc/noalloctest"
	"reesift/internal/sim"
)

// TestNoallocRuntime is the measured half of the //reesift:noalloc
// contract for this package: the scenarios below must run at zero
// allocations, and every annotated function must be named by one.
func TestNoallocRuntime(t *testing.T) {
	noalloctest.Verify(t, []noalloctest.Check{encoderCheck(), schemaCheck(), checkpointCheck(), installAckCheck(),
		armorRoundCheck(t)})
}

// encoderCheck re-encodes one record of every field type into a
// long-lived Encoder, the way an element's Snapshot does.
func encoderCheck() noalloctest.Check {
	var e Encoder
	blob := make([]byte, 24)
	return noalloctest.Check{
		Name: "scratch encoder",
		Covers: []string{"Encoder.Reset", "Encoder.Bytes", "Encoder.word", "Encoder.PutU64", "Encoder.PutI64",
			"Encoder.PutF64", "Encoder.PutBool", "Encoder.PutString", "Encoder.PutBytes"},
		Run: func() {
			e.Reset()
			e.PutU64(1 << 40)
			e.PutI64(-7)
			e.PutF64(1.0 / 3)
			e.PutBool(true)
			e.PutString("node-a1")
			e.PutBytes(blob)
			if len(e.Bytes()) == 0 {
				panic("empty encoding")
			}
		},
	}
}

// schemaCheck re-encodes an element whose Snapshot its Schema derives.
func schemaCheck() noalloctest.Check {
	e := newProbe()
	return noalloctest.Check{
		Name:   "schema snapshot",
		Covers: []string{"Schema.Snapshot"},
		Run: func() {
			if len(e.Snapshot()) == 0 {
				panic("empty snapshot")
			}
		},
	}
}

// checkpointCheck is one microcheckpoint: a region update and a commit.
func checkpointCheck() noalloctest.Check {
	ck := NewCheckpoint(sim.NewFS(), "ckpt/check")
	state := make([]byte, 128)
	return noalloctest.Check{
		Name:   "microcheckpoint",
		Covers: []string{"Checkpoint.Update", "Checkpoint.Commit"},
		Run: func() {
			state[0]++
			ck.Update("element", state)
			ck.Commit()
		},
	}
}

// installAckCheck builds an install acknowledgment's event and reads it
// back: the payload travels inline.
func installAckCheck() noalloctest.Check {
	ack := InstallAck{ID: 7, PID: 42}
	return noalloctest.Check{
		Name:   "install ack payload",
		Covers: []string{"InstallAck.Event", "InstallAckOf"},
		Run: func() {
			if got, ok := InstallAckOf(ack.Event()); !ok || got != ack {
				panic("install ack did not round-trip")
			}
		},
	}
}

// boxWire is a lower layer that boxes each transmission from a real free
// list, which both ARMORs of the round below also free into, so the round
// measures the runtime with its box reuse.
type boxWire struct {
	pids  map[AID]sim.PID
	boxes Boxes
}

func (w *boxWire) sendLower(p *sim.Proc, env Envelope) {
	p.Send(w.pids[env.Dst], w.boxes.Box(env))
}

// beatElem originates the traffic of armorRoundCheck: on every period it
// sends one reliable message and one liveness inquiry, re-arms itself, and
// pushes a watchdog out the way the Execution ARMOR does.
type beatElem struct {
	peer     AID
	watchdog Timer
	spare    Timer
	beats    uint64
	enc      Encoder
}

func (b *beatElem) Name() string               { return "beat" }
func (b *beatElem) Subscriptions() []EventKind { return []EventKind{EventIAmAlive} }
func (b *beatElem) Restore([]byte) error       { return nil }
func (b *beatElem) Check() error               { return nil }
func (b *beatElem) Start(ctx *Ctx)             { ctx.After("beat", time.Millisecond, nil) }

func (b *beatElem) Snapshot() []byte {
	b.enc.Reset()
	b.enc.PutU64(b.beats)
	return b.enc.Bytes()
}

func (b *beatElem) Handle(ctx *Ctx, ev Event) {
	if ev.Kind != EventTimer {
		return
	}
	b.beats++
	ctx.Send(b.peer, evInc, nil)
	ctx.SendUnreliable(b.peer, EventAreYouAlive, nil)
	ctx.After("beat", time.Millisecond, nil)
	if !b.watchdog.Reschedule(time.Second) {
		b.watchdog = ctx.After("beat", time.Second, nil)
	}
	b.spare.Cancel()
	b.spare = ctx.After("beat", time.Hour, nil)
}

// armorRoundCheck runs two ARMORs through steady-state rounds: timer,
// reliable send, boxing, delivery, microcheckpoint, acknowledgement,
// liveness inquiry and reply, retry-timer expiry, and the box's return to
// the free list.
func armorRoundCheck(t *testing.T) noalloctest.Check {
	k := sim.NewKernel(sim.Config{Seed: 1, LocalLatency: 10 * time.Microsecond})
	t.Cleanup(k.Shutdown)
	n := k.AddNode("a")
	w := &boxWire{pids: make(map[AID]sim.PID)}
	rxElem := &counterElem{name: "rx", limit: 1 << 40}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: w.sendLower, Boxes: &w.boxes, RetryInterval: 5 * time.Millisecond})
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{&beatElem{peer: 2}}, SendLower: w.sendLower, Boxes: &w.boxes, RetryInterval: 5 * time.Millisecond})
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
	var limit time.Duration
	return noalloctest.Check{
		Name: "armor round",
		Covers: []string{
			"NewMsg", "Ctx.SendEvent", "Ctx.SendEventUnreliable", "Ctx.After", "Timer.Cancel", "Timer.Reschedule",
			"Armor.newTimer", "Armor.freeTimer", "Armor.aim", "Armor.Dispatch", "Armor.deliverEvent",
			"Armor.handle", "Armor.handleTimer", "Armor.armRetry", "Armor.sendReliable", "Armor.sendAck",
			"Armor.transmitCommitted", "Armor.transmit",
			"Boxes.Box", "Boxes.Free",
		},
		Run: func() {
			before := rxElem.count
			limit += 20 * time.Millisecond
			k.Run(limit)
			if rxElem.count == before {
				panic("armor round delivered nothing")
			}
		},
	}
}
