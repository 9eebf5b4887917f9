package core

import (
	"fmt"
	"strconv"
	"time"

	"reesift/internal/memsim"
	"reesift/internal/sim"
	"reesift/internal/trace"
)

// Crash reason prefixes. The injection framework classifies failures by
// matching these against sim.ExitStatus.Reason, mirroring the paper's
// four-way classification of register/text failures (Table 6).
const (
	ReasonSegfault     = "segmentation fault"
	ReasonIllegal      = "illegal instruction"
	ReasonAssertion    = "assertion"
	ReasonRestoreFail  = "restore failed"
	ReasonCorruptedMsg = "segmentation fault: corrupted message"
)

// RestoreCmd instructs a freshly reinstalled ARMOR to load its state from
// the last committed checkpoint. It is the second step of the paper's
// two-step FTM recovery (reinstall, then restore after the install is
// acknowledged) — the step that the wedged Heartbeat ARMOR never sends in
// the Section 6 receive-omission system failure.
type RestoreCmd struct{}

// InstallAck is sent to the recovery initiator once an ARMOR's process is
// up and its runtime loop is entered.
type InstallAck struct {
	ID  AID
	PID sim.PID
}

// Event returns the acknowledgment as an EventInstalled event, inline.
//
//reesift:noalloc
func (a InstallAck) Event() Event {
	return Event{Kind: EventInstalled, A: uint64(a.ID), B: uint64(a.PID)}
}

// InstallAckOf reads an EventInstalled event; ok is false for any other
// kind.
//
//reesift:noalloc
func InstallAckOf(ev Event) (a InstallAck, ok bool) {
	if ev.Kind != EventInstalled {
		return InstallAck{}, false
	}
	return InstallAck{ID: AID(ev.A), PID: sim.PID(ev.B)}, true
}

// Config assembles an ARMOR.
type Config struct {
	ID   AID
	Name string
	// Elements composing the ARMOR, in delivery order.
	Elements []Element
	// Store is the stable storage for microcheckpoint commits (the
	// node's RAM disk in the testbed configuration).
	Store *sim.FS
	// CheckpointPath locates the checkpoint in Store; defaults to
	// "ckpt/<id>".
	CheckpointPath string
	// SendLower transmits an envelope toward its destination — for most
	// ARMORs, a sim send to the local daemon, which routes by AID.
	SendLower func(p *sim.Proc, env Envelope)
	// OnForward, if non-nil, handles envelopes addressed to other
	// ARMORs (the daemon's gateway role). It receives the boxed envelope
	// as it arrived, to send on as is, and becomes its holder.
	OnForward func(ctx *Ctx, env *Envelope)
	// Boxes is the cluster's envelope free list. A box this ARMOR
	// consumes goes back to it once dispatched; a by-value envelope
	// handed to OnForward is boxed from it. Nil allocates every box and
	// frees none.
	Boxes *Boxes
	// Mem is the simulated memory image for register/text fault
	// injection; nil disables that error model for this process.
	Mem *memsim.Memory
	// AutoRestore makes the runtime load the last committed checkpoint
	// at startup. Subordinate ARMOR recovery uses this; the FTM's
	// two-step recovery leaves it false and waits for RestoreCmd.
	AutoRestore bool
	// AwaitRestore makes a reinstalled ARMOR inert — dropping every
	// message except EventRestore — until the recovery initiator sends
	// the restore command. This is the paper's two-step FTM recovery;
	// if the initiator dies (or is deaf to the install ack) before
	// step two, the ARMOR stays wedged, which is exactly the Section 6
	// Heartbeat ARMOR system failure.
	AwaitRestore bool
	// NotifyInstalled, if set, receives an InstallAck envelope once the
	// runtime starts (the daemon's install acknowledgment target).
	NotifyInstalled AID
	// RetryInterval is the reliable-channel retransmission period
	// (default 2 s).
	RetryInterval time.Duration
	// Epoch is this ARMOR's incarnation epoch, stamped on every outgoing
	// envelope. The FTM bumps the epoch each time it declares the ARMOR
	// failed and reinstalls it, so two live incarnations of one AID —
	// the split-brain aftermath of a healed one-sided partition — are
	// distinguishable, and the lower one can be told to stand down.
	// Zero disables stamping (legacy senders, epoch ablations).
	Epoch uint64
	// OnStaleSender, if non-nil, observes envelopes rejected because the
	// sender's epoch is lower than the highest this runtime has seen for
	// that AID. The envelope has already been dropped; the hook lets the
	// daemon and FTM trigger reconciliation (location re-broadcast) so
	// the stale incarnation learns it was superseded.
	OnStaleSender func(ctx *Ctx, env Envelope)
	// DisableChecks turns off all element assertions (ablation only).
	DisableChecks bool
}

// Armor is a running ARMOR process: it dispatches message events to
// elements, with microcheckpointing and self-checking wrapped around every
// delivery. It runs in one of two forms with the same boot and dispatch
// steps: as a handler process (Handler), which the kernel calls once per
// message with no coroutine and which is how the SIFT daemon installs
// every ARMOR, or as a body process (Run), a Recv/Dispatch loop for
// callers that spawn a function. The two see the same deliveries, send
// the same messages and end the same way. A memsim Hang in the middle of
// a message abandons that message in a handler, where a body parks in the
// middle of it; since a hung process runs again only to die of a kill,
// no outcome differs.
type Armor struct {
	cfg  Config
	proc *sim.Proc
	// ckpt is nil until the boot step or Start aims ckptBuf at this
	// incarnation's store and path.
	ckpt    *Checkpoint
	ckptBuf Checkpoint
	comm    commState
	subs    map[EventKind][]Element

	// ctx is the one element execution context. Every dispatch entry
	// point re-aims it instead of allocating a Ctx per delivery; handlers
	// must not keep it past their return.
	ctx Ctx
	// self is cfg.ID boxed once, the payload of every i-am-alive reply.
	self interface{}
	// timerFree pools timer records; see timerRec. timers holds every
	// record this runtime has made, so Reset can pool them all again.
	timerFree []*timerRec
	timers    []*timerRec

	// Failure-injection side effects.
	deaf        bool
	corruptNext bool

	unacked map[ackKey]Envelope
	retries map[ackKey]int

	// peerEpoch records the highest incarnation epoch seen per sender.
	// Deliberately soft state (not checkpointed): after a restore the
	// runtime re-learns epochs from traffic, and the protocol layers
	// (FTM armor records, daemon install filters) hold the durable copy.
	peerEpoch map[AID]uint64

	// Restored reports whether the last startup loaded checkpoint state.
	Restored bool
}

type ackKey struct {
	dst AID
	seq uint64
}

// Timer kinds, dispatched by handleTimer.
const (
	timerElement uint8 = iota + 1 // EventTimer for one element (Ctx.After)
	timerRetry                    // reliable-channel retransmission
)

// timerRec is what an ARMOR timer delivers to the process inbox. Records
// are pooled per ARMOR and travel as a pointer, so arming and firing a
// timer allocates nothing once the pool is warm. Within an incarnation a
// record returns to the pool exactly once: when its delivery is
// dispatched, or when its pending kernel event is cancelled through a
// Timer handle. What a dead incarnation left armed is never delivered (the
// kernel drops messages to dead processes), and Reset pools it again.
type timerRec struct {
	a    *Armor
	kind uint8
	el   Element     // timerElement: nil when After named no element of this ARMOR
	tag  interface{} // timerElement
	key  ackKey      // timerRetry
	// ev is the kernel event of the record's latest arming; a Timer
	// handle of an earlier one no longer matches it.
	ev sim.Event
}

//reesift:noalloc
func (a *Armor) newTimer(kind uint8) *timerRec {
	if n := len(a.timerFree); n > 0 {
		t := a.timerFree[n-1]
		a.timerFree = a.timerFree[:n-1]
		t.kind = kind
		return t
	}
	t := &timerRec{a: a, kind: kind}
	a.timers = append(a.timers, t)
	return t
}

//reesift:noalloc
func (a *Armor) freeTimer(t *timerRec) {
	t.el, t.tag = nil, nil
	a.timerFree = append(a.timerFree, t)
}

// Timer is a handle to a timer armed with Ctx.After. The zero Timer refers
// to nothing: Cancel and Reschedule are no-ops on it. The kernel event's
// generation stamp guards the record: once the timer has fired or been
// cancelled the handle is stale and can neither free the record a second
// time nor touch the timer that reuses it. A handle from a dead
// incarnation may still name a pending event after Reset has pooled its
// record; the record's own event then no longer matches the handle's.
type Timer struct {
	ev  sim.Event
	rec *timerRec
}

// Cancel stops a pending timer and returns its record to the pool. A timer
// that already fired is delivered as usual, even if not yet dispatched.
//
//reesift:noalloc
func (t Timer) Cancel() {
	if !t.ev.Pending() || t.rec.ev != t.ev {
		return
	}
	t.ev.Cancel()
	t.rec.a.freeTimer(t.rec)
}

// Reschedule moves a pending timer to fire d from now, keeping its tag. It
// reports false when the timer already fired or was cancelled.
//
//reesift:noalloc
func (t Timer) Reschedule(d time.Duration) bool { return t.ev.Reschedule(d) }

// New builds an ARMOR from a config. Spawn it as a handler process
// (Handler) or a body process (Run).
func New(cfg Config) *Armor { return new(Armor).Reset(cfg) }

// Reset re-initialises an ARMOR for a new incarnation built from cfg, and
// returns it. It is New's initialiser; the daemon also calls it on the
// ARMOR of a dead incarnation of the same AID, so a reinstall reuses that
// runtime's storage instead of rebuilding it:
//
//   - the subs, unacked, retries and peerEpoch maps, the subscription
//     lists and the channel state's three tables are emptied, keeping
//     their capacity;
//   - the checkpoint buffer keeps its region buffers and encode scratch;
//     the next boot (or Start) re-aims it at the new store and path, and
//     until then Checkpoint returns nil, as on a fresh ARMOR;
//   - every timer record the runtime has made goes back to the timer pool,
//     the ones the dead incarnation left armed included: their kernel
//     events, if still pending, only deliver to the dead process, which
//     drops them, and its Timer handles no longer match (see Timer);
//   - deaf, corruptNext, Restored, the process and the element context
//     are reset.
//
// The dead incarnation's boxes are dropped, never returned to
// Config.Boxes. The caller must pass fresh elements and must not Reset an
// ARMOR whose process is still alive.
func (a *Armor) Reset(cfg Config) *Armor {
	if cfg.CheckpointPath == "" {
		cfg.CheckpointPath = a.defaultPath(cfg.ID)
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 2 * time.Second
	}
	if a.subs == nil {
		a.subs = make(map[EventKind][]Element)
		a.unacked = make(map[ackKey]Envelope)
		a.retries = make(map[ackKey]int)
		a.peerEpoch = make(map[AID]uint64)
	}
	clear(a.unacked)
	clear(a.retries)
	clear(a.peerEpoch)
	a.comm.reset()
	for kind, els := range a.subs {
		clear(els)
		a.subs[kind] = els[:0]
	}
	for _, el := range cfg.Elements {
		for _, kind := range el.Subscriptions() {
			a.subs[kind] = append(a.subs[kind], el)
		}
	}
	for kind, els := range a.subs {
		if len(els) == 0 {
			delete(a.subs, kind)
		}
	}
	if id, ok := a.self.(AID); !ok || id != cfg.ID {
		a.self = cfg.ID
	}
	a.timerFree = a.timerFree[:0]
	for _, t := range a.timers {
		t.el, t.tag, t.ev = nil, nil, sim.Event{}
		a.timerFree = append(a.timerFree, t)
	}
	a.cfg = cfg
	a.proc, a.ckpt, a.ctx = nil, nil, Ctx{}
	a.deaf, a.corruptNext, a.Restored = false, false, false
	return a
}

// defaultPath returns "ckpt/<id>", reusing the previous incarnation's
// string when it is the same.
func (a *Armor) defaultPath(id AID) string {
	var buf [32]byte
	path := strconv.AppendUint(append(buf[:0], "ckpt/"...), uint64(id), 10)
	if a.cfg.CheckpointPath == string(path) {
		return a.cfg.CheckpointPath
	}
	return string(path)
}

// aimCheckpoint points the checkpoint buffer at this incarnation's store
// and path, emptied.
func (a *Armor) aimCheckpoint(p *sim.Proc) {
	store := a.cfg.Store
	if store == nil {
		store = p.Node().RAMDisk()
	}
	a.ckptBuf.aim(store, a.cfg.CheckpointPath)
	a.ckpt = &a.ckptBuf
}

// ID returns the ARMOR's identification number.
func (a *Armor) ID() AID { return a.cfg.ID }

// Config returns the configuration of the ARMOR's latest Reset, with its
// defaults filled in. A caller that Resets the ARMOR again may reuse its
// name, lower layers and hooks; the elements only where they hold no state.
func (a *Armor) Config() Config { return a.cfg }

// Checkpoint exposes the checkpoint buffer (the heap injector corrupts it
// through this).
func (a *Armor) Checkpoint() *Checkpoint { return a.ckpt }

// Elements returns the composed elements.
func (a *Armor) Elements() []Element { return a.cfg.Elements }

// Element returns the named element, or nil.
func (a *Armor) Element(name string) Element {
	for _, el := range a.cfg.Elements {
		if el.Name() == name {
			return el
		}
	}
	return nil
}

// Mem returns the simulated memory image attached for register/text
// injection (nil when this ARMOR is not a target).
func (a *Armor) Mem() *memsim.Memory { return a.cfg.Mem }

// Epoch returns this ARMOR's incarnation epoch.
func (a *Armor) Epoch() uint64 { return a.cfg.Epoch }

// NotePeerEpoch records an epoch learned out of band (an install spec or a
// location broadcast) so the stale-sender gate applies before the peer's
// first direct envelope arrives. Lower values than already known are
// ignored.
func (a *Armor) NotePeerEpoch(id AID, epoch uint64) {
	if epoch > a.peerEpoch[id] {
		a.peerEpoch[id] = epoch
	}
}

// PeerEpoch returns the highest incarnation epoch seen for a peer (zero if
// unknown).
func (a *Armor) PeerEpoch(id AID) uint64 { return a.peerEpoch[id] }

// MakeDeaf forces the receive-omission failure mode (used directly by
// targeted injections and tests).
func (a *Armor) MakeDeaf() { a.deaf = true }

// CorruptNextSend forces the next outgoing non-ack envelope to be marked
// corrupt (a fail-silence violation).
func (a *Armor) CorruptNextSend() { a.corruptNext = true }

// ResetPeer forgets all sequencing state for one peer. Execution ARMORs
// call it when a fresh application process (re)binds: the new incarnation
// numbers its messages from one and must not be mistaken for duplicates of
// its predecessor.
func (a *Armor) ResetPeer(peer AID) {
	a.comm.forgetPeer(peer)
	if a.ckpt != nil {
		a.ckpt.Update(commName, a.comm.Snapshot())
	}
}

// Ctx is the element execution context for one event delivery. An ARMOR
// has one, valid for the duration of the Handle or Start call it is passed
// to.
type Ctx struct {
	Armor *Armor
	Proc  *sim.Proc
	// From is the source AID of the envelope being processed
	// (InvalidAID for timers and child-exit events).
	From AID
}

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.Proc.Now() }

// Send transmits a single-event message reliably: it is sequenced,
// acknowledged, and retransmitted until acknowledged.
func (c *Ctx) Send(dst AID, kind EventKind, data interface{}) {
	c.SendEvent(dst, Event{Kind: kind, Data: data})
}

// SendUnreliable transmits a single-event message with no sequencing, no
// ack, and no retransmission — the are-you-alive traffic pattern.
func (c *Ctx) SendUnreliable(dst AID, kind EventKind, data interface{}) {
	c.SendEventUnreliable(dst, Event{Kind: kind, Data: data})
}

// SendEvent transmits a built event reliably, like Send: the way a typed
// protocol constructor's event, its payload inline, is sent.
//
//reesift:noalloc
func (c *Ctx) SendEvent(dst AID, ev Event) {
	c.Armor.sendReliable(c.Proc, Envelope{Src: c.Armor.cfg.ID, Dst: dst, Event: ev})
}

// SendEventUnreliable transmits a built event like SendUnreliable.
//
//reesift:noalloc
func (c *Ctx) SendEventUnreliable(dst AID, ev Event) {
	c.Armor.transmit(c.Proc, Envelope{Src: c.Armor.cfg.ID, Dst: dst, Event: ev})
}

// After arranges for the named element to receive an EventTimer carrying
// tag after d.
//
//reesift:noalloc
func (c *Ctx) After(element string, d time.Duration, tag interface{}) Timer {
	a := c.Armor
	t := a.newTimer(timerElement)
	t.el, t.tag = a.Element(element), tag
	t.ev = c.Proc.After(d, t)
	return Timer{ev: t.ev, rec: t}
}

// Touch records that the handler mutated *another* element's state, so
// that element's region is refreshed too (microcheckpointing captures the
// state of every element affected by an event, not only the subscriber).
// Touch also runs the touched element's assertions. Elements that only
// mutate themselves never need this; incidental (erroneous) writes to
// other elements are deliberately NOT captured — that is what keeps a
// clean copy in the checkpoint for rollback (Section 7.2).
func (c *Ctx) Touch(el Element) {
	c.Armor.ckpt.Update(el.Name(), el.Snapshot())
	c.Armor.runCheck(c.Proc, el, "")
}

// runCheck runs one element's assertions, killing the ARMOR on failure
// (unless self-checks are ablated away).
func (a *Armor) runCheck(p *sim.Proc, el Element, suffix string) {
	if a.cfg.DisableChecks {
		return
	}
	if err := el.Check(); err != nil {
		p.Crash(fmt.Sprintf("%s: element %s%s: %v", ReasonAssertion, el.Name(), suffix, err))
	}
}

// armorHandler is an Armor in its handler form: the kernel calls its
// Start once, at the process's first dispatch, and Handle per message.
type armorHandler Armor

// Handler returns the ARMOR as the handler of a handler process
// (sim.Kernel.SpawnHandler). It is a converted pointer, so it allocates
// nothing.
func (a *Armor) Handler() sim.Handler { return (*armorHandler)(a) }

// Start implements sim.Handler: the ARMOR's boot step.
func (h *armorHandler) Start(p *sim.Proc) { (*Armor)(h).boot(p) }

// Handle implements sim.Handler: one message, dispatched.
//
//reesift:noalloc
func (h *armorHandler) Handle(p *sim.Proc, m sim.Msg) { (*Armor)(h).Dispatch(p, m) }

// Run is the ARMOR's body form: the boot step, then a Recv/Dispatch loop
// until the process dies by crash, kill, or node failure.
func (a *Armor) Run(p *sim.Proc) {
	a.boot(p)
	for {
		a.Dispatch(p, p.Recv())
	}
}

// boot starts an incarnation on p, in either form: it aims the checkpoint
// buffer, restores checkpointed state if configured, acknowledges the
// installation, and starts the elements unless the ARMOR awaits a restore
// command.
func (a *Armor) boot(p *sim.Proc) {
	a.proc = p
	a.aimCheckpoint(p)
	if a.cfg.AutoRestore {
		a.restoreFromCheckpoint()
	}
	if a.cfg.NotifyInstalled.Valid() {
		a.sendReliable(p, Envelope{Src: a.cfg.ID, Dst: a.cfg.NotifyInstalled,
			Event: InstallAck{ID: a.cfg.ID, PID: p.Self()}.Event()})
	}
	if !a.cfg.AwaitRestore {
		a.Start(p)
	}
}

// Start invokes every Starter element. The boot step calls it, and so do
// a restore command and composite processes that embed the runtime in a
// handler of their own (the daemon).
func (a *Armor) Start(p *sim.Proc) {
	a.proc = p
	if a.ckpt == nil {
		a.aimCheckpoint(p)
	}
	// Start re-enters from deliverEvent on a restore command: give the
	// delivery in progress its source back afterwards.
	from := a.ctx.From
	ctx := a.aim(p, InvalidAID)
	for _, el := range a.cfg.Elements {
		if s, ok := el.(Starter); ok {
			s.Start(ctx)
			a.ckpt.Update(el.Name(), el.Snapshot())
		}
	}
	a.ctx.From = from
}

// aim points the ARMOR's one Ctx at a delivery from the given source.
//
//reesift:noalloc
func (a *Armor) aim(p *sim.Proc, from AID) *Ctx {
	a.ctx = Ctx{Armor: a, Proc: p, From: from}
	return &a.ctx
}

// Dispatch processes one inbox message: what both forms do per message.
// Exposed so composite processes (the daemon, which is both an ARMOR and a
// gateway) can drive the runtime from their own handlers.
//
//reesift:noalloc
func (a *Armor) Dispatch(p *sim.Proc, m sim.Msg) {
	a.proc = p
	// Every dispatched message is a unit of work for the memory model.
	a.step(p)
	switch pl := m.Payload.(type) {
	case *Envelope:
		if !a.handleEnvelope(p, *pl, pl) {
			a.cfg.Boxes.Free(pl)
		}
	case Envelope:
		// A lower layer that sends by value boxes at every hop.
		a.handleEnvelope(p, pl, nil)
	case *timerRec:
		a.handleTimer(p, pl)
	case *sim.ChildExit:
		a.deliverEvent(p, InvalidAID, Event{Kind: EventChildExit, Data: m.Payload})
	case RestoreCmd:
		a.restoreFromCheckpoint()
	}
}

// step advances the simulated memory model by one work unit and applies
// whatever manifestation fires.
func (a *Armor) step(p *sim.Proc) {
	if a.cfg.Mem == nil {
		return
	}
	switch out := a.cfg.Mem.Step(); out {
	case memsim.OutcomeNone:
	case memsim.OutcomeSegfault:
		p.Crash(ReasonSegfault)
	case memsim.OutcomeIllegalInstr:
		p.Crash(ReasonIllegal)
	case memsim.OutcomeHang:
		p.Hang()
	case memsim.OutcomeCorruptState:
		a.corruptRandomElementField(p)
	case memsim.OutcomeCorruptMessage:
		a.corruptNext = true
	case memsim.OutcomeCorruptCheckpoint:
		a.corruptCheckpointAndCrash(p)
	case memsim.OutcomeReceiveOmission:
		a.deaf = true
	}
}

// corruptRandomElementField flips one bit in one live non-pointer field of
// a random heap-injectable element. The corruption then takes the same
// mechanistic path as a targeted heap injection: maybe an assertion
// catches it, maybe it escapes in a message, maybe nothing ever reads it.
func (a *Armor) corruptRandomElementField(p *sim.Proc) {
	rng := p.Kernel().Rand()
	var fields []HeapField
	for _, el := range a.cfg.Elements {
		if hi, ok := el.(HeapInjectable); ok {
			fields = append(fields, hi.HeapFields()...)
		}
	}
	if len(fields) == 0 {
		return
	}
	f := fields[rng.Intn(len(fields))]
	bit := uint(rng.Intn(int(f.Bits)))
	f.Set(memsim.FlipBit(f.Get(), bit))
}

// corruptCheckpointAndCrash damages the in-process checkpoint buffer,
// commits it (the damage reaches stable storage), then crashes — the
// paper's "error corrupted the FTM's checkpoint prior to crashing"
// scenario that produces a crash-restore-crash loop.
func (a *Armor) corruptCheckpointAndCrash(p *sim.Proc) {
	rng := p.Kernel().Rand()
	names := a.ckpt.Elements()
	if len(names) > 0 {
		region := a.ckpt.Region(names[rng.Intn(len(names))])
		if len(region) > 0 {
			for i := 0; i < 3; i++ {
				off := rng.Intn(len(region))
				region[off] = memsim.FlipByteBit(region[off], uint(rng.Intn(8)))
			}
		}
		a.ckpt.Commit()
	}
	p.Crash(ReasonSegfault + " after checkpoint corruption")
}

// handleEnvelope runs the receive side of the reliable channel. box is the
// envelope as it arrived (nil when the sender passed a value); only the
// gateway path hands it on, and handleEnvelope reports whether it did.
// Everything else reads the copy env, so the caller may free the box as
// soon as this returns false.
func (a *Armor) handleEnvelope(p *sim.Proc, env Envelope, box *Envelope) (handed bool) {
	if a.deaf {
		// Receive omission: the element-level receive path is dead,
		// but the process still believes it is healthy, keeps running
		// timers, and still answers liveness inquiries (the corrupted
		// code path is the element dispatch, not the basic liveness
		// responder) — which is exactly why the paper's deaf Heartbeat
		// ARMOR survived long enough to wedge the FTM.
		if !env.Ack {
			a.replyAliveOnly(p, env)
		}
		return false
	}
	if env.Dst != a.cfg.ID {
		if a.cfg.OnForward == nil {
			return false
		}
		if box == nil {
			box = a.cfg.Boxes.Box(env)
		}
		a.cfg.OnForward(a.aim(p, env.Src), box)
		return true
	}
	if env.SrcEpoch > 0 {
		if env.SrcEpoch < a.peerEpoch[env.Src] {
			// A superseded incarnation is still talking — the healed
			// half of a split brain. Drop the envelope and let the
			// hook trigger reconciliation.
			if a.cfg.OnStaleSender != nil {
				a.cfg.OnStaleSender(a.aim(p, env.Src), env)
			}
			return false
		}
		a.peerEpoch[env.Src] = env.SrcEpoch
	}
	if env.Ack {
		key := ackKey{dst: env.Src, seq: env.AckSeq}
		delete(a.unacked, key)
		delete(a.retries, key)
		return false
	}
	if env.Corrupt {
		// Parsing a message whose contents were damaged inside the
		// sender. The receiver dies before marking the message seen or
		// acknowledging it, so the sender will retransmit the same
		// faulty bytes — the Section 6 crash-loop.
		p.Crash(ReasonCorruptedMsg)
	}
	if env.Seq > 0 {
		if a.comm.seen(env.Src, env.Seq) {
			// Duplicate: drop before processing (Figure 10), but
			// re-acknowledge so the sender stops retransmitting.
			a.sendAck(p, env.Src, env.Seq)
			return false
		}
	}
	if a.cfg.AwaitRestore && !a.Restored {
		// Reinstalled but not yet restored: inert until step two of
		// the two-step recovery arrives.
		if env.Event.Kind != EventRestore {
			if k := p.Kernel(); k.TraceOn() {
				k.Emit(trace.Record{Kind: trace.KindLog, Op: "awaiting-restore-drop",
					Detail: a.cfg.Name + ": " + string(env.Event.Kind), A: int64(env.Src)})
			}
			a.replyAliveOnly(p, env)
			return false
		}
	}
	a.deliverEvent(p, env.Src, env.Event)
	if env.Seq > 0 {
		a.comm.markSeen(env.Src, env.Seq)
		a.ckpt.Update(commName, a.comm.Snapshot())
		a.sendAck(p, env.Src, env.Seq)
	}
	return false
}

// replyAliveOnly answers an are-you-alive inquiry without processing
// anything else (deaf and awaiting-restore states).
func (a *Armor) replyAliveOnly(p *sim.Proc, env Envelope) {
	if env.Event.Kind == EventAreYouAlive {
		a.transmit(p, NewMsg(a.cfg.ID, env.Src, EventIAmAlive, a.self))
	}
}

// deliverEvent runs the microcheckpointed dispatch: the event goes to each
// subscribed element; after every delivery the element's state is copied
// into its checkpoint region and its assertions run.
//
//reesift:noalloc
func (a *Armor) deliverEvent(p *sim.Proc, from AID, ev Event) {
	switch ev.Kind {
	case EventAreYouAlive:
		// Basic-element behaviour common to all ARMORs.
		a.transmit(p, NewMsg(a.cfg.ID, from, EventIAmAlive, a.self))
		return
	case EventRestore:
		if k := p.Kernel(); k.TraceOn() {
			k.Emit(trace.Record{Kind: trace.KindLog, Op: "restore-command", Detail: a.cfg.Name})
		}
		a.restoreFromCheckpoint()
		a.Restored = true
		a.Start(p)
		return
	}
	ctx := a.aim(p, from)
	for _, el := range a.subs[ev.Kind] {
		a.handle(ctx, el, ev)
	}
}

// handle delivers one event to one element, then microcheckpoints and
// self-checks it.
//
//reesift:noalloc
func (a *Armor) handle(ctx *Ctx, el Element, ev Event) {
	el.Handle(ctx, ev)
	a.ckpt.Update(el.Name(), el.Snapshot())
	a.runCheck(ctx.Proc, el, "")
}

// handleTimer dispatches a fired timer by kind. The record is read out and
// pooled first, so whatever the handler arms next can reuse it.
//
//reesift:noalloc
func (a *Armor) handleTimer(p *sim.Proc, t *timerRec) {
	kind, el, tag, key := t.kind, t.el, t.tag, t.key
	a.freeTimer(t)
	switch kind {
	case timerRetry:
		env, ok := a.unacked[key]
		if !ok {
			return
		}
		a.retries[key]++
		a.transmit(p, env)
		a.armRetry(p, key)
	case timerElement:
		if el != nil {
			a.handle(a.aim(p, InvalidAID), el, Event{Kind: EventTimer, Data: tag})
		}
	}
}

// armRetry schedules the retransmission check for an unacknowledged send.
//
//reesift:noalloc
func (a *Armor) armRetry(p *sim.Proc, key ackKey) {
	t := a.newTimer(timerRetry)
	t.key = key
	t.ev = p.After(a.cfg.RetryInterval, t)
}

// sendReliable sequences, records, and transmits an envelope, arming the
// retransmission timer. unacked keeps its own copy: what travels is boxed
// below and mutated by the hops, so a retransmission is bit-identical to
// the first transmission.
//
//reesift:noalloc
func (a *Armor) sendReliable(p *sim.Proc, env Envelope) {
	env.Seq = a.comm.assign(env.Dst)
	if a.corruptNext {
		env.Corrupt = true
		a.corruptNext = false
	}
	key := ackKey{dst: env.Dst, seq: env.Seq}
	a.unacked[key] = env
	a.ckpt.Update(commName, a.comm.Snapshot())
	a.transmitCommitted(p, env)
	a.armRetry(p, key)
}

//reesift:noalloc
func (a *Armor) sendAck(p *sim.Proc, dst AID, seq uint64) {
	a.transmitCommitted(p, Envelope{Src: a.cfg.ID, Dst: dst, Ack: true, AckSeq: seq})
}

// transmitCommitted commits the checkpoint buffer to stable storage and
// then sends: "checkpoints are committed to stable storage after every
// ARMOR message transmission" (Section 3.4). A reinstalled shell that has
// not yet restored must not commit — its near-empty buffer would clobber
// the very checkpoint it is waiting to load.
//
//reesift:noalloc
func (a *Armor) transmitCommitted(p *sim.Proc, env Envelope) {
	if !a.cfg.AwaitRestore || a.Restored {
		a.ckpt.Commit()
		if k := p.Kernel(); k.TraceOn() {
			k.Emit(trace.Record{Kind: trace.KindCheckpoint, Op: a.cfg.Name,
				A: int64(a.ckpt.Commits())})
		}
	}
	a.transmit(p, env)
}

// transmit hands the envelope to the lower layer without touching
// checkpoints (unreliable sends and retransmissions). Every envelope this
// incarnation originates is stamped with its epoch here — the single
// funnel below sendReliable, sendAck, and the liveness replies.
//
//reesift:noalloc
func (a *Armor) transmit(p *sim.Proc, env Envelope) {
	if env.SrcEpoch == 0 && env.Src == a.cfg.ID {
		env.SrcEpoch = a.cfg.Epoch
	}
	if a.corruptNext && !env.Ack {
		env.Corrupt = true
		a.corruptNext = false
	}
	if a.cfg.SendLower == nil {
		return
	}
	a.cfg.SendLower(p, env)
}

// restoreFromCheckpoint loads the last committed state. A structurally
// unparseable checkpoint, an element that fails to parse its region, or a
// restored state that immediately fails assertions all crash the ARMOR —
// which is exactly how a corrupted checkpoint turns into the paper's
// repeated failure-recovery cycle.
func (a *Armor) restoreFromCheckpoint() {
	found, err := a.ckpt.Load()
	if !found {
		return
	}
	if err != nil {
		a.proc.Crash(fmt.Sprintf("%s: checkpoint unparseable: %v", ReasonRestoreFail, err))
	}
	if k := a.proc.Kernel(); k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindLog, Op: "restore-loaded",
			Detail: a.cfg.Name, A: int64(len(a.ckpt.Elements()))})
	}
	if data := a.ckpt.Region(commName); data != nil {
		if err := a.comm.Restore(data); err != nil {
			a.proc.Crash(fmt.Sprintf("%s: comm state: %v", ReasonRestoreFail, err))
		}
	}
	for _, el := range a.cfg.Elements {
		region := a.ckpt.Region(el.Name())
		if region == nil {
			continue
		}
		if err := el.Restore(region); err != nil {
			a.proc.Crash(fmt.Sprintf("%s: element %s: %v", ReasonRestoreFail, el.Name(), err))
		}
		a.runCheck(a.proc, el, " after restore")
	}
	a.Restored = true
}
