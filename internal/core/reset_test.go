package core

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"reesift/internal/sim"
)

// TestResetMatchesNew drives an ARMOR through reliable sends (one of them
// retransmitted), an out-of-order receipt, element and retry timers, an
// out-of-band peer epoch, the deaf and corrupt-next failure modes and its
// commits, kills it, and Resets it for a new incarnation. The reset ARMOR
// must equal a fresh New of the same config field by field, before it
// runs and again once both have loaded the dead incarnation's checkpoint.
// The timer records are the one storage allowed to differ: Reset keeps
// every record the runtime made and pools them all, the ones the dead
// incarnation left armed included.
func TestResetMatchesNew(t *testing.T) {
	k := newCoreKernel(t)
	n := k.AddNode("a")
	w := &wire{pids: make(map[AID]sim.PID)}
	// The ARMOR's second message is lost every time, so it stays unacked
	// and keeps being retransmitted; the peer's second is lost once, so its
	// third arrives out of order and waits in the ARMOR's comm.extra.
	peerLost := false
	w.drop = func(env Envelope) bool {
		switch {
		case env.Ack || env.Seq != 2:
			return false
		case env.Src == 2:
			return true
		case env.Src == 1 && !peerLost:
			peerLost = true
			return true
		}
		return false
	}
	peer := New(Config{ID: 1, Name: "peer", SendLower: w.sendLower, Epoch: 2,
		Elements: []Element{&counterElem{name: "peer", limit: 1 << 20, peer: 2, period: 100 * time.Millisecond}}})
	w.pids[1] = k.Spawn(n, "peer", sim.NoPID, peer.Run)
	x := New(Config{ID: 2, Name: "x", SendLower: w.sendLower, Epoch: 4, RetryInterval: 300 * time.Millisecond,
		Elements: []Element{&counterElem{name: "x", limit: 1 << 20, peer: 1, period: 150 * time.Millisecond}}})
	w.pids[2] = k.Spawn(n, "x", sim.NoPID, x.Run)
	k.Run(time.Second)
	x.NotePeerEpoch(9, 5)
	x.MakeDeaf()
	x.CorruptNextSend()
	k.Kill(w.pids[2], "SIGINT")
	k.Run(1100 * time.Millisecond)
	if k.Alive(w.pids[2]) {
		t.Fatal("the first incarnation survived its kill")
	}
	// The dead incarnation holds every kind of state Reset must drop.
	if len(x.comm.extra) == 0 || len(x.unacked) == 0 || len(x.retries) == 0 ||
		len(x.peerEpoch) < 2 || !x.deaf || !x.corruptNext || x.ckpt.Commits() == 0 {
		t.Fatalf("the first incarnation did not reach the state under test: comm.extra %v unacked %d retries %v peerEpoch %v deaf %v corruptNext %v commits %d",
			x.comm.extra, len(x.unacked), x.retries, x.peerEpoch, x.deaf, x.corruptNext, x.ckpt.Commits())
	}

	cfg := func(el *counterElem) Config {
		return Config{ID: 2, Name: "x", SendLower: w.sendLower, AutoRestore: true, Elements: []Element{el}}
	}
	freshEl, resetEl := &counterElem{name: "x", limit: 1 << 20}, &counterElem{name: "x", limit: 1 << 20}
	fresh, reset := New(cfg(freshEl)), x.Reset(cfg(resetEl))
	if reset != x {
		t.Fatal("Reset returned another ARMOR")
	}
	compareArmors(t, "after Reset", reset, fresh)

	// Both incarnations load the dead one's committed image. Neither has
	// a peer to send to, so neither commits over it.
	k.Spawn(n, "fresh", sim.NoPID, fresh.Run)
	k.Spawn(n, "reset", sim.NoPID, reset.Run)
	k.Run(1200 * time.Millisecond)
	if !fresh.Restored || freshEl.count == 0 {
		t.Fatalf("the fresh ARMOR did not restore (count %d)", freshEl.count)
	}
	if len(fresh.comm.extra) == 0 || len(fresh.ckpt.Elements()) < 2 {
		t.Fatalf("the loaded image lacks the state under test: comm.extra %v, regions %v", fresh.comm.extra, fresh.ckpt.Elements())
	}
	if resetEl.count != freshEl.count {
		t.Fatalf("restored element count %d after Reset, %d fresh", resetEl.count, freshEl.count)
	}
	compareArmors(t, "after Load", reset, fresh)
}

// compareArmors fails unless got and want agree on every field: maps by
// content, elements by name, functions by identity. It names each field
// of Armor, so a field added later fails the test until it is compared
// here (and, most likely, reset by Reset).
func compareArmors(t *testing.T, when string, got, want *Armor) {
	t.Helper()
	fail := func(field string, g, w any) { t.Errorf("%s: %s = %v, fresh ARMOR has %v", when, field, g, w) }
	compared := []string{"cfg", "proc", "ckpt", "ckptBuf", "comm", "subs", "ctx", "self", "run", "timerFree",
		"timers", "deaf", "corruptNext", "unacked", "retries", "peerEpoch", "Restored"}
	if typ := reflect.TypeFor[Armor](); typ.NumField() != len(compared) {
		t.Fatalf("Armor has %d fields, compareArmors knows %d: %v", typ.NumField(), len(compared), compared)
	}

	gc, wc := got.cfg, want.cfg
	if names(gc.Elements) != names(wc.Elements) {
		fail("cfg.Elements", names(gc.Elements), names(wc.Elements))
	}
	for _, fn := range []struct {
		name string
		g, w any
	}{{"SendLower", gc.SendLower, wc.SendLower}, {"OnForward", gc.OnForward, wc.OnForward},
		{"OnStaleSender", gc.OnStaleSender, wc.OnStaleSender}} {
		if funcID(fn.g) != funcID(fn.w) {
			fail("cfg."+fn.name, funcID(fn.g), funcID(fn.w))
		}
	}
	gc.Elements, gc.SendLower, gc.OnForward, gc.OnStaleSender = nil, nil, nil, nil
	wc.Elements, wc.SendLower, wc.OnForward, wc.OnStaleSender = nil, nil, nil, nil
	if !reflect.DeepEqual(gc, wc) {
		fail("cfg", gc, wc)
	}

	if (got.proc == nil) != (want.proc == nil) {
		fail("proc", got.proc, want.proc)
	}
	if (got.ckpt == nil) != (want.ckpt == nil) {
		fail("ckpt", got.ckpt, want.ckpt)
	}
	if got.ckpt != nil {
		if got.ckpt != &got.ckptBuf {
			t.Errorf("%s: ckpt does not point at the ARMOR's own buffer", when)
		}
		g, w := got.ckpt, want.ckpt
		if !slices.Equal(g.Elements(), w.Elements()) {
			fail("ckpt regions", g.Elements(), w.Elements())
		}
		for _, name := range w.Elements() {
			if !slices.Equal(g.Region(name), w.Region(name)) {
				fail("ckpt region "+name, g.Region(name), w.Region(name))
			}
		}
		if g.path != w.path || g.store != w.store || g.commits != w.commits || g.updates != w.updates {
			fail("ckpt path/store/commits/updates", []any{g.path, g.store, g.commits, g.updates},
				[]any{w.path, w.store, w.commits, w.updates})
		}
		if gi, wi := g.encode(), w.encode(); !slices.Equal(gi, wi) {
			fail("ckpt image", gi, wi)
		}
	}

	gm, wm := &got.comm, &want.comm
	if gm.self != gm {
		t.Errorf("%s: comm's schema is not wired to the ARMOR's own comm state", when)
	}
	for _, tab := range []struct {
		name string
		g, w []seqRow
	}{{"sent", gm.sent, wm.sent}, {"recv", gm.recv, wm.recv}, {"extra", gm.extra, wm.extra}} {
		if !slices.Equal(tab.g, tab.w) {
			fail("comm."+tab.name, tab.g, tab.w)
		}
	}

	if !maps.EqualFunc(got.subs, want.subs, func(g, w []Element) bool { return names(g) == names(w) }) {
		fail("subs", got.subs, want.subs)
	}
	// A context is aimed at its own ARMOR and some process, or is zero.
	if (got.ctx.Armor == got) != (want.ctx.Armor == want) || (got.ctx.Armor == nil) != (want.ctx.Armor == nil) ||
		(got.ctx.Proc == nil) != (want.ctx.Proc == nil) || got.ctx.From != want.ctx.From {
		fail("ctx", got.ctx, want.ctx)
	}
	if got.self != want.self {
		fail("self", got.self, want.self)
	}
	if got.run == nil || want.run == nil {
		fail("run", got.run != nil, want.run != nil)
	}
	if got.deaf != want.deaf {
		fail("deaf", got.deaf, want.deaf)
	}
	if got.corruptNext != want.corruptNext {
		fail("corruptNext", got.corruptNext, want.corruptNext)
	}
	if !maps.Equal(got.unacked, want.unacked) {
		fail("unacked", got.unacked, want.unacked)
	}
	if !maps.Equal(got.retries, want.retries) {
		fail("retries", got.retries, want.retries)
	}
	if !maps.Equal(got.peerEpoch, want.peerEpoch) {
		fail("peerEpoch", got.peerEpoch, want.peerEpoch)
	}
	if got.Restored != want.Restored {
		fail("Restored", got.Restored, want.Restored)
	}
}

// names spells an element list by element name.
func names(els []Element) string {
	var s string
	for _, el := range els {
		s += el.Name() + ","
	}
	return s
}

// funcID identifies a function value (0 for nil).
func funcID(fn any) uintptr {
	v := reflect.ValueOf(fn)
	if v.IsNil() {
		return 0
	}
	return v.Pointer()
}
