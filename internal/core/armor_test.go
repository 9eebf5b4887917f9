package core

import (
	"fmt"
	"testing"
	"time"

	"reesift/internal/sim"
)

// counterElem is a minimal element: a bounded counter with a range
// assertion, heap-injectable, and a timer-driven "tick" mode for tests
// that need self-initiated sends.
type counterElem struct {
	name  string
	count int64
	limit int64

	// peer, if valid, receives a "test.inc" on every timer tick.
	peer   AID
	period time.Duration
	onInc  func(ctx *Ctx, n int64)

	enc Encoder // Snapshot scratch
}

const evInc EventKind = "test.inc"

func (c *counterElem) Name() string { return c.name }

func (c *counterElem) Subscriptions() []EventKind { return []EventKind{evInc} }

func (c *counterElem) Handle(ctx *Ctx, ev Event) {
	switch ev.Kind {
	case evInc:
		c.count++
		if c.onInc != nil {
			c.onInc(ctx, c.count)
		}
	case EventTimer:
		if c.peer.Valid() {
			ctx.Send(c.peer, evInc, nil)
			ctx.After(c.name, c.period, "tick")
		}
	}
}

func (c *counterElem) Start(ctx *Ctx) {
	if c.peer.Valid() {
		ctx.After(c.name, c.period, "tick")
	}
}

func (c *counterElem) Snapshot() []byte {
	e := &c.enc
	e.Reset()
	e.PutI64(c.count)
	e.PutI64(c.limit)
	return e.Bytes()
}

func (c *counterElem) Restore(data []byte) error {
	d := NewDecoder(data)
	count, limit := d.I64(), d.I64()
	if err := d.Done(); err != nil {
		return err
	}
	c.count, c.limit = count, limit
	return nil
}

func (c *counterElem) Check() error {
	if c.count < 0 || c.count > c.limit {
		return fmt.Errorf("count %d outside [0,%d]", c.count, c.limit)
	}
	return nil
}

func (c *counterElem) HeapFields() []HeapField {
	return []HeapField{{
		Name: c.name + ".count",
		Bits: 64,
		Get:  func() uint64 { return uint64(c.count) },
		Set:  func(v uint64) { c.count = int64(v) },
	}}
}

var (
	_ Starter        = (*counterElem)(nil)
	_ HeapInjectable = (*counterElem)(nil)
)

// wire is a trivial AID-to-PID switchboard standing in for the daemon
// layer in runtime unit tests.
type wire struct {
	pids map[AID]sim.PID
	// drop, if set, returns true to swallow an envelope (loss test).
	drop func(env Envelope) bool
}

func (w *wire) sendLower(p *sim.Proc, env Envelope) {
	if w.drop != nil && w.drop(env) {
		return
	}
	if pid, ok := w.pids[env.Dst]; ok {
		p.Send(pid, env)
	}
}

func newCoreKernel(t *testing.T) *sim.Kernel {
	t.Helper()
	k := sim.NewKernel(sim.Config{Seed: 7, LocalLatency: 100 * time.Microsecond, RemoteLatency: time.Millisecond})
	t.Cleanup(k.Shutdown)
	return k
}

func TestReliableDeliveryAndAck(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}

	rxElem := &counterElem{name: "rx", limit: 1000}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: w.sendLower})
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)

	txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)

	k.Run(10500 * time.Millisecond)
	if rxElem.count != 10 {
		t.Fatalf("rx count = %d, want 10", rxElem.count)
	}
	if len(tx.unacked) != 0 {
		t.Fatalf("%d sends unacked", len(tx.unacked))
	}
}

func TestRetransmissionAfterLoss(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	dropped := 0
	w := &wire{pids: make(map[AID]sim.PID)}
	w.drop = func(env Envelope) bool {
		// Drop the first transmission of every data envelope.
		if !env.Ack && env.Seq > 0 && dropped < 3 && env.Seq > uint64(dropped) {
			dropped++
			return true
		}
		return false
	}

	rxElem := &counterElem{name: "rx", limit: 1000}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: w.sendLower})
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)

	txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: 5 * time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)

	k.Run(31 * time.Second)
	if dropped == 0 {
		t.Fatal("drop hook never fired")
	}
	if rxElem.count < 3 {
		t.Fatalf("rx count = %d despite retransmission", rxElem.count)
	}
	if len(tx.unacked) != 0 {
		t.Fatalf("%d sends still unacked", len(tx.unacked))
	}
}

func TestDuplicatesSuppressed(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	// Duplicate every data envelope.
	base := w.sendLower
	_ = base
	rxElem := &counterElem{name: "rx", limit: 1000}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: nil})
	dupSend := func(p *sim.Proc, env Envelope) {
		if pid, ok := w.pids[env.Dst]; ok {
			p.Send(pid, env)
			if !env.Ack {
				p.Send(pid, env)
			}
		}
	}
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)

	txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: dupSend})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
	rx.cfg.SendLower = w.sendLower

	k.Run(5500 * time.Millisecond)
	if rxElem.count != 5 {
		t.Fatalf("rx count = %d, want 5 (duplicates must be dropped before processing)", rxElem.count)
	}
}

func TestAssertionCrashesArmor(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}

	rxElem := &counterElem{name: "rx", limit: 2} // assertion fires at count 3
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: w.sendLower})
	var exit sim.ChildExit
	k.Spawn(n, "watcher", sim.NoPID, func(p *sim.Proc) {
		w.pids[2] = p.SpawnChild(n, "rx", rx.Run)
		txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: time.Second}
		tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
		w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
		for {
			m := p.Recv()
			if ce, ok := m.Payload.(*sim.ChildExit); ok {
				exit = *ce
				return
			}
		}
	})
	k.Run(time.Minute)
	if exit.Child == 0 {
		t.Fatal("armor did not crash")
	}
	if got := exit.Reason; len(got) < len(ReasonAssertion) || got[:len(ReasonAssertion)] != ReasonAssertion {
		t.Fatalf("reason = %q, want assertion prefix", got)
	}
}

func TestRecoveryRestoresElementState(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}

	mkRx := func() (*counterElem, *Armor) {
		el := &counterElem{name: "rx", limit: 1000}
		a := New(Config{ID: 2, Name: "rx", Elements: []Element{el}, SendLower: w.sendLower, AutoRestore: true})
		return el, a
	}
	rxElem, rx := mkRx()
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)

	txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)

	k.Run(5500 * time.Millisecond)
	if rxElem.count != 5 {
		t.Fatalf("pre-crash count = %d", rxElem.count)
	}
	// Kill and reinstall: state must come back from the microcheckpoint.
	k.Schedule(0, func() { k.Kill(w.pids[2], "SIGINT") })
	k.Run(5600 * time.Millisecond)
	rxElem2, rx2 := mkRx()
	k.Schedule(0, func() { w.pids[2] = k.Spawn(n, "rx-recovered", sim.NoPID, rx2.Run) })
	k.Run(11 * time.Second)
	if !rx2.Restored {
		t.Fatal("recovered armor did not restore from checkpoint")
	}
	if rxElem2.count < 5 {
		t.Fatalf("restored count = %d, want >= 5", rxElem2.count)
	}
}

func TestAreYouAliveAutoReply(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	el := &counterElem{name: "e", limit: 10}
	a := New(Config{ID: 5, Name: "a", Elements: []Element{el}, SendLower: w.sendLower})
	w.pids[5] = k.Spawn(n, "a", sim.NoPID, a.Run)

	var reply Envelope
	gotReply := false
	k.Spawn(n, "prober", sim.NoPID, func(p *sim.Proc) {
		w.pids[9] = p.Self()
		p.Send(w.pids[5], NewMsg(9, 5, EventAreYouAlive, nil))
		m, ok := p.RecvTimeout(5 * time.Second)
		if ok {
			reply = m.Payload.(Envelope)
			gotReply = true
		}
	})
	k.Run(time.Minute)
	if !gotReply {
		t.Fatal("no I-am-alive reply")
	}
	if reply.Event.Kind != EventIAmAlive {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestDeafArmorIgnoresMessagesButLivesOn(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	el := &counterElem{name: "e", limit: 10}
	a := New(Config{ID: 5, Name: "a", Elements: []Element{el}, SendLower: w.sendLower})
	a.MakeDeaf()
	pid := k.Spawn(n, "a", sim.NoPID, a.Run)
	w.pids[5] = pid

	aliveReplied := false
	processed := false
	k.Spawn(n, "prober", sim.NoPID, func(p *sim.Proc) {
		w.pids[9] = p.Self()
		// Element events are dropped silently...
		env := NewMsg(9, 5, evInc, nil)
		env.Seq = 1
		p.Send(pid, env)
		if _, ok := p.RecvTimeout(5 * time.Second); ok {
			processed = true // an ack would mean it was processed
		}
		// ...but the basic liveness responder still answers.
		p.Send(pid, NewMsg(9, 5, EventAreYouAlive, nil))
		_, aliveReplied = p.RecvTimeout(5 * time.Second)
	})
	k.Run(time.Minute)
	if processed {
		t.Fatal("deaf armor acknowledged an element event")
	}
	if !aliveReplied {
		t.Fatal("deaf armor must still answer are-you-alive (element-level receive omission)")
	}
	if el.count != 0 {
		t.Fatal("deaf armor processed an element event")
	}
	if !k.Alive(pid) {
		t.Fatal("deaf armor should still be running")
	}
}

func TestCorruptMessageCrashesReceiverAndRetransmitLoops(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}

	// Receiver under a watcher that counts crashes and reinstalls it,
	// emulating daemon recovery.
	crashes := 0
	var spawnRx func()
	spawnRx = func() {
		el := &counterElem{name: "rx", limit: 1000}
		rx := New(Config{ID: 2, Name: "rx", Elements: []Element{el}, SendLower: w.sendLower, AutoRestore: true})
		k.Spawn(n, "rx-watcher", sim.NoPID, func(p *sim.Proc) {
			w.pids[2] = p.SpawnChild(n, "rx", rx.Run)
			m := p.Recv()
			if _, ok := m.Payload.(*sim.ChildExit); ok {
				crashes++
				if crashes < 4 {
					spawnRx()
				}
			}
		})
	}
	spawnRx()

	txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: 30 * time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
	tx.CorruptNextSend()
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)

	k.Run(2 * time.Minute)
	if crashes < 3 {
		t.Fatalf("crash-retransmit loop: crashes = %d, want >= 3 (receiver crashes, sender retransmits the same faulty bytes)", crashes)
	}
}

func TestCorruptCheckpointCausesRestoreCrashLoop(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}

	// Build state, commit, then corrupt the stored checkpoint so
	// restores keep failing.
	el := &counterElem{name: "rx", limit: 1000}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{el}, SendLower: w.sendLower})
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)
	txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
	k.Run(3500 * time.Millisecond)

	k.Kill(w.pids[2], "SIGINT")
	// Structural corruption of the stored checkpoint.
	data, err := n.RAMDisk().Read("ckpt/2")
	if err != nil {
		t.Fatalf("no committed checkpoint: %v", err)
	}
	data[0] = 0xFF
	n.RAMDisk().Write("ckpt/2", data)

	crashCount := 0
	k.Spawn(n, "recoverer", sim.NoPID, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			el2 := &counterElem{name: "rx", limit: 1000}
			rx2 := New(Config{ID: 2, Name: "rx", Elements: []Element{el2}, SendLower: w.sendLower, AutoRestore: true})
			w.pids[2] = p.SpawnChild(n, "rx", rx2.Run)
			m := p.Recv()
			if ce, ok := m.Payload.(*sim.ChildExit); ok && ce.Code != 0 {
				crashCount++
			}
		}
	})
	k.Run(time.Minute)
	if crashCount != 3 {
		t.Fatalf("restore crash loop: %d crashes, want 3", crashCount)
	}
}

func TestStarterRunsOnStartup(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	rxElem := &counterElem{name: "rx", limit: 10}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{rxElem}, SendLower: w.sendLower})
	w.pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)
	// tx's Start arms the tick timer; without Starter support nothing
	// would ever be sent.
	txElem := &counterElem{name: "tx", limit: 10, peer: 2, period: time.Second}
	tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
	w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
	k.Run(2500 * time.Millisecond)
	if rxElem.count == 0 {
		t.Fatal("Starter did not run")
	}
}

func TestInstallAckNotification(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	var ack InstallAck
	got := false
	k.Spawn(n, "initiator", sim.NoPID, func(p *sim.Proc) {
		w.pids[1] = p.Self()
		el := &counterElem{name: "e", limit: 10}
		a := New(Config{ID: 2, Name: "a", Elements: []Element{el}, SendLower: w.sendLower, NotifyInstalled: 1})
		w.pids[2] = p.SpawnChild(n, "a", a.Run)
		m, ok := p.RecvTimeout(10 * time.Second)
		if !ok {
			return
		}
		env := m.Payload.(Envelope)
		ack, got = InstallAckOf(env.Event)
	})
	k.Run(time.Minute)
	if !got || ack.ID != 2 {
		t.Fatalf("install ack = %+v got=%v", ack, got)
	}
}

func TestHeapFieldCorruptionTripsAssertionOnNextEvent(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	el := &counterElem{name: "rx", limit: 1000}
	rx := New(Config{ID: 2, Name: "rx", Elements: []Element{el}, SendLower: w.sendLower})
	var exit sim.ChildExit
	k.Spawn(n, "watcher", sim.NoPID, func(p *sim.Proc) {
		w.pids[2] = p.SpawnChild(n, "rx", rx.Run)
		txElem := &counterElem{name: "tx", limit: 1000, peer: 2, period: time.Second}
		tx := New(Config{ID: 1, Name: "tx", Elements: []Element{txElem}, SendLower: w.sendLower})
		w.pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
		m := p.Recv()
		exit = *m.Payload.(*sim.ChildExit)
	})
	// Flip the sign bit of the live counter mid-run: the next event's
	// post-handle Check sees count < 0.
	k.Schedule(2500*time.Millisecond, func() {
		f := el.HeapFields()[0]
		f.Set(f.Get() | (1 << 63))
	})
	k.Run(time.Minute)
	if exit.Child == 0 {
		t.Fatal("no crash observed")
	}
	if exit.Reason[:len(ReasonAssertion)] != ReasonAssertion {
		t.Fatalf("reason = %q", exit.Reason)
	}
}
