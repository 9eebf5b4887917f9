package sift

import (
	"fmt"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// ExecElem is the application-monitoring element of an Execution ARMOR
// (Section 3.1): it launches the rank-0 MPI process as a child, detects
// application crashes (waitpid for its child, process-table polling for
// ranks it did not launch), detects application hangs through
// progress-indicator polling (Figure 6), and notifies the FTM of
// application failures.
type ExecElem struct {
	core.Schema[ExecElem, *ExecElem]
	env *Environment

	App  *AppSpec
	Rank int

	// AppPID is the overseen process (0 until bound).
	AppPID sim.PID
	// Child is true while AppPID is our own child (waitpid covers it);
	// after an ARMOR recovery the new process is not the app's parent
	// and falls back to process-table polling like the other ranks.
	Child bool
	// Launched counts launches performed by this ARMOR (rank 0).
	Launched int64
	// NormalExit is set when the application announces a clean exit.
	NormalExit bool
	// ExpectKill suppresses failure reporting for FTM-ordered kills.
	ExpectKill bool
	// Completed latches after the completion notification is sent.
	Completed bool

	// Progress-indicator state (Figure 6): the application updates
	// Counter via EvProgress; a poll at PIPeriod compares against
	// PrevCounter. PICreated gates hang detection entirely — before the
	// application announces its indicator, hangs are undetectable.
	PICreated   bool
	PIPeriod    time.Duration
	Counter     uint64
	PrevCounter uint64
	FirstCheck  bool

	// piEpoch invalidates progress-check timer chains from a previous
	// application incarnation: a relaunch bumps the epoch so a stale
	// in-flight check cannot consume the fresh chain's grace period and
	// raise a false hang alarm.
	piEpoch int64

	// InterruptDriven selects the Section 5.1 watchdog design: each
	// progress indicator resets a timer that expires one period (plus
	// slack) after the last update, bounding detection latency to ~one
	// period instead of up to two.
	InterruptDriven bool
	watchdog        core.Timer
	// watchdogEpoch is the piEpoch baked into the pending watchdog's
	// timer payload; a re-arm within the same epoch can Reschedule the
	// timer in place, while an epoch bump must schedule a fresh one so
	// the payload's epoch stamp stays current.
	watchdogEpoch int64

	pollPeriod time.Duration
}

type piCheckTag struct{ epoch int64 }
type watchdogTag struct{ epoch int64 }
type procPollTag struct{}

// watchdogSlack returns the margin added to the watchdog period: a
// quarter period absorbs initialization gaps and messaging jitter in the
// application's send cadence so healthy runs raise no false alarms, while
// keeping the detection bound well under the polling design's two
// periods.
func watchdogSlack(period time.Duration) time.Duration { return period / 4 }

// Name implements core.Element.
func (e *ExecElem) Name() string { return "app_mon" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *ExecElem) Subscriptions() []core.EventKind { return execSubscriptions }

var execSubscriptions = []core.EventKind{
	EvLaunchApp, EvAppPID, EvPICreate, EvProgress,
	EvAppExiting, EvKillApp, core.EventChildExit,
}

// Start arms the process-table poll used for ranks this ARMOR did not
// launch (and for its own rank after a recovery).
func (e *ExecElem) Start(ctx *core.Ctx) {
	if e.pollPeriod <= 0 {
		e.pollPeriod = 2 * time.Second
	}
	ctx.After(e.Name(), e.pollPeriod, procPollTag{})
	if e.PICreated {
		// Recovered mid-run: resume hang checking.
		e.FirstCheck = true
		e.piEpoch++
		if e.InterruptDriven {
			e.armWatchdog(ctx)
		} else {
			ctx.After(e.Name(), e.PIPeriod, piCheckTag{epoch: e.piEpoch})
		}
	}
}

// Handle implements core.Element.
func (e *ExecElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case EvLaunchApp:
		la, ok := LaunchAppOf(ev)
		if !ok || la.AppID != e.App.ID {
			return
		}
		e.launch(ctx, la)
	case EvAppPID:
		ap, ok := AppPIDOf(ev)
		if !ok || ap.AppID != e.App.ID || ap.Rank != e.Rank {
			return
		}
		e.bind(ctx, ap)
	case EvPICreate:
		pc, ok := PICreateOf(ev)
		if !ok || pc.AppID != e.App.ID || pc.Rank != e.Rank {
			return
		}
		e.PICreated = true
		e.PIPeriod = pc.Period
		e.FirstCheck = true
		e.Counter, e.PrevCounter = 0, 0
		e.piEpoch++
		if e.InterruptDriven {
			e.armWatchdog(ctx)
		} else {
			ctx.After(e.Name(), e.PIPeriod, piCheckTag{epoch: e.piEpoch})
		}
	case EvProgress:
		pr, ok := ev.Data.(*Progress)
		if !ok || pr.AppID != e.App.ID || pr.Rank != e.Rank {
			return
		}
		e.Counter = ev.N
		if e.InterruptDriven && e.PICreated {
			// The update interrupts the checking thread and resets
			// its watchdog (Section 5.1).
			e.armWatchdog(ctx)
		}
	case EvAppExiting:
		ax, ok := AppExitingOf(ev)
		if !ok || ax.AppID != e.App.ID || ax.Rank != e.Rank {
			return
		}
		e.NormalExit = true
		e.PICreated = false
		if !e.Completed {
			e.Completed = true
			ctx.SendEvent(AIDFTM, AppComplete{AppID: e.App.ID, Rank: e.Rank}.Event())
		}
	case EvKillApp:
		ka, ok := KillAppOf(ev)
		if !ok || ka.AppID != e.App.ID {
			return
		}
		e.kill(ctx)
	case core.EventChildExit:
		ce, ok := ev.Data.(*sim.ChildExit)
		if !ok || ce.Child != e.AppPID {
			return
		}
		e.childExited(ctx, ce)
	case core.EventTimer:
		switch tag := ev.Data.(type) {
		case piCheckTag:
			e.piCheck(ctx, tag)
		case watchdogTag:
			e.watchdogFired(ctx, tag)
		case procPollTag:
			e.procPoll(ctx)
		}
	}
}

// launch starts (or restarts) the application's rank-0 process as a child
// of this ARMOR (Table 1, step 4).
func (e *ExecElem) launch(ctx *core.Ctx, la LaunchApp) {
	if e.Rank != 0 {
		return
	}
	e.resetRun()
	ctx.Armor.ResetPeer(AIDApp(e.App.ID, e.Rank))
	e.Launched++
	pid := e.env.launchApp(ctx.Proc, e.App, 0, la.Restart)
	e.AppPID = pid
	e.Child = true
	if la.Restart == 0 && e.Launched == 1 {
		e.env.Log.addApp(ctx.Now(), LogAppStarted, e.App.ID, 0, uint64(pid))
	} else {
		e.env.Log.addApp(ctx.Now(), LogAppRelaunched, e.App.ID, 0, uint64(la.Restart))
	}
}

// bind attaches a rank this ARMOR did not launch (Table 1, step 7) and
// opens the monitoring channel toward the application process.
func (e *ExecElem) bind(ctx *core.Ctx, ap AppPID) {
	e.resetRun()
	ctx.Armor.ResetPeer(AIDApp(e.App.ID, e.Rank))
	e.AppPID = ap.PID
	e.Child = false
	ctx.SendEvent(AIDApp(e.App.ID, e.Rank), ChannelOpen{AppID: e.App.ID, Rank: e.Rank}.Event())
}

func (e *ExecElem) resetRun() {
	e.NormalExit = false
	e.ExpectKill = false
	e.Completed = false
	e.PICreated = false
	e.Counter, e.PrevCounter = 0, 0
	e.piEpoch++
}

// kill terminates the local application process during whole-application
// recovery and acknowledges the FTM.
func (e *ExecElem) kill(ctx *core.Ctx) {
	e.ExpectKill = true
	e.PICreated = false
	if e.AppPID != sim.NoPID && ctx.Proc.Kernel().Alive(e.AppPID) {
		ctx.Proc.Kernel().Kill(e.AppPID, "application recovery")
	}
	ctx.SendEvent(AIDFTM, KillAppDone{AppID: e.App.ID, Rank: e.Rank}.Event())
}

// childExited is the waitpid path for the rank-0 child: crashes are
// detected immediately.
func (e *ExecElem) childExited(ctx *core.Ctx, ce *sim.ChildExit) {
	if e.NormalExit || e.Completed {
		return
	}
	if e.ExpectKill {
		e.ExpectKill = false
		return
	}
	e.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogAppCrashDetected, id: uint64(e.App.ID), rank: int32(e.Rank), ref: e.env.Log.intern(ce.Reason)})
	e.env.Log.DetectApp(ctx.Now(), e.App.ID, e.Rank, ce.Reason, false)
	ctx.SendEvent(AIDFTM, AppFailed{AppID: e.App.ID, Rank: e.Rank, Reason: ce.Reason}.Event())
	e.AppPID = sim.NoPID
}

// procPoll checks the process table for ranks without a parent-child link
// (Section 3.3: "the other Execution ARMORs periodically check that their
// MPI processes are still in the operating system's process table").
func (e *ExecElem) procPoll(ctx *core.Ctx) {
	defer ctx.After(e.Name(), e.pollPeriod, procPollTag{})
	if e.AppPID == sim.NoPID || e.Child || e.NormalExit || e.Completed || e.ExpectKill {
		return
	}
	if ctx.Proc.Kernel().Alive(e.AppPID) {
		return
	}
	e.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogAppCrashDetected, id: uint64(e.App.ID), rank: int32(e.Rank), flag: true})
	e.env.Log.DetectApp(ctx.Now(), e.App.ID, e.Rank, "crash", false)
	ctx.SendEvent(AIDFTM, AppFailed{AppID: e.App.ID, Rank: e.Rank, Reason: "crash"}.Event())
	e.AppPID = sim.NoPID
}

// armWatchdog (re)starts the interrupt-driven watchdog: it expires one
// period plus slack after the most recent progress indicator.
func (e *ExecElem) armWatchdog(ctx *core.Ctx) {
	d := e.PIPeriod + watchdogSlack(e.PIPeriod)
	if e.watchdogEpoch == e.piEpoch && e.watchdog.Reschedule(d) {
		return // same-epoch re-arm: sift the pending timer in place
	}
	e.watchdog.Cancel()
	e.watchdog = ctx.After(e.Name(), d, watchdogTag{epoch: e.piEpoch})
	e.watchdogEpoch = e.piEpoch
}

// watchdogFired is the interrupt-driven hang verdict: no progress
// indicator arrived within a full period of the previous one.
func (e *ExecElem) watchdogFired(ctx *core.Ctx, tag watchdogTag) {
	if tag.epoch != e.piEpoch {
		return
	}
	if !e.PICreated || e.NormalExit || e.Completed || e.ExpectKill {
		return
	}
	e.PICreated = false
	e.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogAppHangDetected, id: uint64(e.App.ID), rank: int32(e.Rank), n: e.Counter, flag: true})
	e.env.Log.DetectApp(ctx.Now(), e.App.ID, e.Rank, "hang", true)
	ctx.SendEvent(AIDFTM, AppFailed{AppID: e.App.ID, Rank: e.Rank, Hang: true, Reason: "watchdog expired"}.Event())
}

// piCheck is the Figure 6 polling rule: if the progress counter is
// unchanged between two consecutive checks, the application has hung.
// Detection latency is therefore between one and two checking periods.
func (e *ExecElem) piCheck(ctx *core.Ctx, tag piCheckTag) {
	if tag.epoch != e.piEpoch {
		return // stale chain from a previous incarnation
	}
	if !e.PICreated || e.NormalExit || e.Completed || e.ExpectKill {
		return
	}
	defer ctx.After(e.Name(), e.PIPeriod, piCheckTag{epoch: tag.epoch})
	if e.FirstCheck {
		e.FirstCheck = false
		e.PrevCounter = e.Counter
		return
	}
	if e.Counter != e.PrevCounter {
		e.PrevCounter = e.Counter
		return
	}
	// Hung: no progress across a full checking interval.
	e.PICreated = false
	e.env.Log.addApp(ctx.Now(), LogAppHangDetected, e.App.ID, e.Rank, e.Counter)
	e.env.Log.DetectApp(ctx.Now(), e.App.ID, e.Rank, "hang", true)
	ctx.SendEvent(AIDFTM, AppFailed{AppID: e.App.ID, Rank: e.Rank, Hang: true, Reason: "progress indicator unchanged"}.Event())
}

// Fields declares app_mon's checkpointed state. The application and rank the ARMOR
// was installed for are binding keys: a checkpoint taken for another
// binding is refused as corrupt.
func (e *ExecElem) Fields(c *core.Codec) {
	core.BindU64(c, "app", uint64(e.App.ID))
	core.BindI64(c, "rank", int64(e.Rank))
	core.U64(c, &e.AppPID, core.Heap(0, "appPID", 16))
	// The recovered process is not the application's parent; it falls
	// back to process-table polling even for rank 0.
	core.Dropped(c, &e.Child)
	core.I64(c, &e.Launched, core.Heap(3, "launched", 8))
	core.Bool(c, &e.NormalExit)
	core.Bool(c, &e.ExpectKill)
	core.Bool(c, &e.Completed)
	core.Bool(c, &e.PICreated)
	core.I64(c, &e.PIPeriod, core.Heap(2, "piPeriod", 48))
	core.U64(c, &e.Counter, core.Heap(1, "counter", 32))
	core.U64(c, &e.PrevCounter, core.NoHeap)
}

// Check implements core.Element.
func (e *ExecElem) Check() error {
	if e.Rank < 0 || e.Rank >= MaxRanks {
		return fmt.Errorf("rank %d out of range", e.Rank)
	}
	if e.Launched < 0 || e.Launched > 10000 {
		return fmt.Errorf("launch count %d", e.Launched)
	}
	if e.PICreated && (e.PIPeriod <= 0 || e.PIPeriod > time.Hour) {
		return fmt.Errorf("progress period %v", e.PIPeriod)
	}
	return nil
}

var _ core.Starter = (*ExecElem)(nil)
