package inject

import (
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

func init() {
	RegisterModel(ModelMsgDrop, "msg-drop", func() Injector { return &msgFaultInjector{} })
	RegisterModel(ModelMsgCorrupt, "msg-corrupt", func() Injector { return &msgFaultInjector{corrupt: true} })
}

// msgFaultInjector implements the communication-fault models the paper
// left untested on the REE testbed: for a transient interval of
// NetFaultFor starting at the drawn time, every network message to or
// from the target process is subjected — with probability NetFaultProb —
// to omission (msg-drop) or value corruption (msg-corrupt, a
// fail-silence violation: the receiver parses damaged bytes and dies).
//
// The fault model installs at the kernel's send/latency boundary with
// its own derived RNG, so the run remains a pure function of the seed;
// the nominal message schedule of every untouched message is unchanged.
type msgFaultInjector struct {
	// corrupt selects value corruption over omission.
	corrupt bool
	// at is the interval start, stamped only if the fault armed.
	at    time.Duration
	armed bool
}

// Schedule draws the interval start uniformly over the application
// window.
func (mf *msgFaultInjector) Schedule(r *Runner) {
	r.drawAt(r.cfg.SubmitAt, r.cfg.Window, func(at time.Duration) { mf.Fire(r, at) })
}

// Fire arms the kernel's message fault model for the transient interval.
// It implements Firer, so the compound coordinator can arm it as a
// stage.
func (mf *msgFaultInjector) Fire(r *Runner, at time.Duration) {
	pid := r.pid()
	if pid == sim.NoPID || !r.k.Alive(pid) || r.appAlreadyDone() {
		return // interval fell after completion: no error
	}
	mf.at = at
	mf.armed = true
	sel := r.target()
	fault := &sim.NetFault{
		// Match re-resolves the captured target's pid per message, so
		// traffic of a recovered (re-spawned) target stays under fault
		// for the rest of the interval — and a compound stage keeps
		// matching its own target after the coordinator moves on.
		Match: func(src, dst sim.PID, payload interface{}) bool {
			t := r.pidOfRef(sel)
			return t != sim.NoPID && (src == t || dst == t)
		},
	}
	if mf.corrupt {
		fault.Corrupt = r.cfg.NetFaultProb
		fault.Mutate = corruptEnvelope
	} else {
		fault.Drop = r.cfg.NetFaultProb
	}
	//reesift:allow seedlint -- fixed-constant stream split of one trial seed; distinct per subsystem, pinned by every injection golden
	r.k.InstallNetFault(r.cfg.Seed^0x7a11, fault)
	r.k.Schedule(r.cfg.NetFaultFor, func() { r.k.ClearNetFault() })
}

// corruptEnvelope marks an ARMOR envelope as carrying damaged contents.
// The receiver's runtime parses it and crashes (ReasonCorruptedMsg) —
// and because the sender never sees an ack, reliable channels retransmit
// the same faulty bytes, the paper's Section 6 crash-loop mechanism.
// Non-envelope payloads (raw MPI traffic) pass through unchanged.
func corruptEnvelope(payload interface{}) (interface{}, bool) {
	env, ok := payload.(*core.Envelope)
	if !ok || env.Ack {
		return payload, false
	}
	// In place: the message in flight is the box's only holder, and the
	// sender retransmits from its own copy.
	env.Corrupt = true
	return payload, true
}

// Finish counts the fault model's effects as the run's error insertions.
func (mf *msgFaultInjector) Finish(r *Runner) {
	if !mf.armed {
		return
	}
	stats := r.k.NetFaultStats()
	n := stats.Dropped + stats.Corrupted
	if n == 0 {
		return // interval passed without touching a message
	}
	r.recordInjections(mf.at, n)
	r.res.Activated = true
}
