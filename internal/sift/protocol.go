// Package sift implements the REE SIFT environment on top of the ARMOR
// runtime: the Fault Tolerance Manager (FTM), per-node daemons, the
// Heartbeat ARMOR, Execution ARMORs, the Spacecraft Control Computer (SCC)
// driver, and the SIFT interface that applications link against.
//
// The division of responsibility follows Section 3 of the paper exactly:
//
//   - the FTM recovers subordinate ARMORs and failed nodes, installs
//     Execution ARMORs, tracks application status, and talks to the SCC;
//   - the Heartbeat ARMOR's sole job is detecting and recovering FTM
//     failures, from a different node;
//   - daemons are the gateways for all ARMOR-to-ARMOR communication,
//     detect local ARMOR crashes via waitpid and hangs via are-you-alive
//     polls, and install ARMOR processes on their node;
//   - Execution ARMORs launch and watch application processes: waitpid
//     for the rank-0 child, process-table polling for the other ranks,
//     and progress-indicator polling for hangs.
//
// The decoupling matters: it is why the environment recovers the paper's
// correlated failures — the detectors of a failed pair are never part of
// the pair.
//
// Every process records what it observes in the environment's EventLog.
// An entry is typed: its LogKind comes from a closed list whose String
// values are the kind names ("armor-installed", "chaos-beat", …), and it
// holds values — the ARMOR or application, rank, node, counter or epoch —
// not text. LogEntry.Detail renders the text when someone reads it; only a
// traced log (EventLog.Sink set) renders it as the entry is added, so an
// untraced entry costs no formatting. Readers count and find entries by
// kind (Count is O(1)) and match the typed fields, never the text.
package sift

import (
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// AppID identifies a submitted application.
type AppID uint64

// Event kinds exchanged between SIFT processes.
const (
	// EvRegisterDaemon registers a daemon with the FTM at environment
	// initialization (Table 1, step 1c). Payload: RegisterDaemon, inline.
	EvRegisterDaemon core.EventKind = "sift.register-daemon"
	// EvInstallArmor instructs a daemon to install an ARMOR process on
	// its node. Payload: InstallArmor, the spec's pointer in Data.
	EvInstallArmor core.EventKind = "sift.install-armor"
	// EvUninstallArmor instructs a daemon to remove a local ARMOR.
	// Payload: UninstallArmor, inline.
	EvUninstallArmor core.EventKind = "sift.uninstall-armor"
	// EvArmorFailed notifies the FTM that a local ARMOR died. Payload:
	// ArmorFailed, inline.
	EvArmorFailed core.EventKind = "sift.armor-failed"
	// EvSubmitApp submits an application for execution (SCC to FTM).
	// Data: SubmitApp.
	EvSubmitApp core.EventKind = "sift.submit-app"
	// EvLaunchApp instructs the rank-0 Execution ARMOR to start the
	// application process. Payload: LaunchApp, inline.
	EvLaunchApp core.EventKind = "sift.launch-app"
	// EvAppPIDs reports the process IDs of MPI ranks 1..n-1, sent by
	// the rank-0 process to the FTM (Table 1, step 6). Data: AppPIDs.
	EvAppPIDs core.EventKind = "sift.app-pids"
	// EvAppPID forwards one rank's process ID from the FTM to that
	// rank's Execution ARMOR (Table 1, step 7). Payload: AppPID, inline.
	EvAppPID core.EventKind = "sift.app-pid"
	// EvPICreate creates the progress-indicator channel: the
	// application tells its Execution ARMOR at what period to check
	// for progress. Payload: PICreate, inline.
	EvPICreate core.EventKind = "sift.pi-create"
	// EvProgress is a progress-indicator update. Data: *Progress; the
	// counter is the event's N.
	EvProgress core.EventKind = "sift.progress"
	// EvAppExiting tells the Execution ARMOR the local application
	// process is terminating normally (so the exit is not
	// misinterpreted as a crash). Payload: AppExiting, inline.
	EvAppExiting core.EventKind = "sift.app-exiting"
	// EvAppComplete reports a rank's normal completion to the FTM.
	// Payload: AppComplete, inline.
	EvAppComplete core.EventKind = "sift.app-complete"
	// EvAppFailed reports an application failure (crash, hang, or
	// incorrect output) to the FTM. Payload: AppFailed, inline.
	EvAppFailed core.EventKind = "sift.app-failed"
	// EvKillApp instructs an Execution ARMOR to kill its application
	// process during whole-application recovery. Payload: KillApp, inline.
	EvKillApp core.EventKind = "sift.kill-app"
	// EvKillAppDone acknowledges EvKillApp. Payload: KillAppDone, inline.
	EvKillAppDone core.EventKind = "sift.kill-app-done"
	// EvAppDone reports application completion to the SCC. Payload:
	// AppDone, inline.
	EvAppDone core.EventKind = "sift.app-done"
	// EvChannelOpen completes the Execution ARMOR-to-application
	// channel establishment for ranks 1..n-1. Payload: ChannelOpen, inline.
	EvChannelOpen core.EventKind = "sift.channel-open"
	// EvLocation broadcasts AID-to-node placements from the FTM to the
	// daemons' location caches. Payload: Location, inline.
	EvLocation core.EventKind = "sift.location"
	// EvStaleSender reports to the FTM that a daemon rejected traffic
	// from a superseded ARMOR incarnation (a healed split brain). The
	// FTM answers with a full location re-broadcast so the stale
	// incarnation's node learns the authoritative placements and evicts
	// it. Payload: StaleSender, inline.
	EvStaleSender core.EventKind = "sift.stale-sender"
)

// RegisterDaemon registers a node's daemon with the FTM.
type RegisterDaemon struct {
	Hostname  string
	DaemonAID core.AID
	// Epoch is the daemon incarnation epoch: 1 at first boot, bumped by
	// the boot agent on every reinstall after a node restart.
	Epoch uint64
}

// StaleSender reports a rejected envelope from a superseded incarnation.
type StaleSender struct {
	// ID is the stale sender's AID, SeenEpoch its (lower) epoch, and
	// KnownEpoch the highest epoch the reporter knows for that AID.
	ID         core.AID
	SeenEpoch  uint64
	KnownEpoch uint64
	// Node is the reporting daemon's hostname.
	Node string
}

// ArmorKind distinguishes the ARMOR configurations a daemon can install.
type ArmorKind int

// The four ARMOR kinds of the REE SIFT environment (Section 3.1).
const (
	KindFTM ArmorKind = iota + 1
	KindHeartbeat
	KindExecution
	KindDaemon
)

// String names the kind.
func (k ArmorKind) String() string {
	switch k {
	case KindFTM:
		return "FTM"
	case KindHeartbeat:
		return "Heartbeat"
	case KindExecution:
		return "Execution"
	case KindDaemon:
		return "Daemon"
	default:
		return "Unknown"
	}
}

// InstallArmor instructs a daemon to install an ARMOR. The spec travels by
// pointer, and no one writes a spec once it is sent: a retransmission and
// every receiver read the one the sender built.
type InstallArmor struct {
	Spec *ArmorSpec
}

// UninstallArmor removes a local ARMOR and discards its checkpoint.
type UninstallArmor struct {
	ID core.AID
}

// ArmorFailed reports a local ARMOR failure to the FTM.
type ArmorFailed struct {
	ID     core.AID
	Hang   bool // true if detected by are-you-alive timeout
	Reason string
}

// ArmorSpec describes an ARMOR for installation. Specs flow inside install
// events; the daemon hands them to the environment's factory.
type ArmorSpec struct {
	ID   core.AID
	Kind ArmorKind
	Name string
	// AutoRestore loads the checkpoint at startup (one-step recovery of
	// subordinate ARMORs).
	AutoRestore bool
	// AwaitRestore makes the new process inert until EventRestore
	// (two-step FTM recovery).
	AwaitRestore bool
	// NotifyInstalled receives the install acknowledgment.
	NotifyInstalled core.AID
	// Epoch is the incarnation epoch of the installed ARMOR. The FTM
	// stamps it: 1 at first install, +1 on every failure declaration.
	// Daemons refuse specs older than the highest epoch they know for
	// the AID (a stale recoverer replaying a superseded install). Zero
	// means epoching is disabled.
	Epoch uint64
	// App carries the application binding for Execution ARMORs.
	App  *AppSpec
	Rank int
}

// SubmitApp submits an application to the FTM (SCC, Table 1 step 2).
type SubmitApp struct {
	App *AppSpec
}

// LaunchApp starts (or restarts) the application process under the rank-0
// Execution ARMOR.
type LaunchApp struct {
	AppID   AppID
	Restart int
}

// AppPIDs carries rank-to-PID bindings from the rank-0 process to the FTM.
type AppPIDs struct {
	AppID AppID
	PIDs  map[int]sim.PID
}

// AppPID binds one rank's process to its Execution ARMOR.
type AppPID struct {
	AppID AppID
	Rank  int
	PID   sim.PID
}

// PICreate announces the progress-indicator period to the Execution ARMOR.
// Until it arrives the ARMOR cannot detect application hangs (the paper's
// OTIS-before-PI-creation system failures).
type PICreate struct {
	AppID AppID
	Rank  int
	// Period is the application's progress-indicator update period; the
	// Execution ARMOR polls its counter at the same period (checking
	// faster only causes false alarms — Section 5.1).
	Period time.Duration
}

// Progress is the header of a rank's "I'm-alive" updates. Each update
// carries an application-defined progress counter (e.g. a loop iteration
// count) as its event's N; the header itself is boxed once per process
// and never changes.
type Progress struct {
	AppID AppID
	Rank  int
}

// AppExiting announces a normal termination of the local rank.
type AppExiting struct {
	AppID AppID
	Rank  int
}

// AppComplete reports a rank's completion to the FTM.
type AppComplete struct {
	AppID AppID
	Rank  int
}

// AppFailed reports an application failure to the FTM.
type AppFailed struct {
	AppID  AppID
	Rank   int
	Hang   bool
	Reason string
}

// KillApp orders an Execution ARMOR to kill its application process.
type KillApp struct {
	AppID AppID
}

// KillAppDone acknowledges KillApp.
type KillAppDone struct {
	AppID AppID
	Rank  int
}

// AppDone reports to the SCC that an application finished (Table 1,
// step 13).
type AppDone struct {
	AppID    AppID
	Restarts int
}

// ChannelOpen tells a non-rank-0 application process that its Execution
// ARMOR has established the monitoring channel; the process may proceed
// into the MPI world.
type ChannelOpen struct {
	AppID AppID
	Rank  int
}

// Location binds an AID to a node for daemon routing caches. Epoch (when
// nonzero) is the bound incarnation's epoch: a daemon that hosts a local
// incarnation with a lower epoch placed on another node evicts it (the
// stand-down path of split-brain reconciliation).
type Location struct {
	ID    core.AID
	Node  string
	Epoch uint64
}

// ---------------------------------------------------------------------------
// Payload encodings. Each kind with a small payload carries it in the
// event's inline words, so sending it allocates nothing:
//
//	kind              A          B          N           S
//	register-daemon   DaemonAID  -          Epoch       Hostname
//	uninstall-armor   ID         -          -           -
//	armor-failed      ID         Hang       -           Reason
//	launch-app        AppID      Restart    -           -
//	app-pid           AppID      Rank       PID         -
//	pi-create         AppID      Rank       Period      -
//	app-exiting       AppID      Rank       -           -
//	app-complete      AppID      Rank       -           -
//	app-failed        AppID      Rank       Hang        Reason
//	kill-app          AppID      -          -           -
//	kill-app-done     AppID      Rank       -           -
//	app-done          AppID      Restarts   -           -
//	channel-open      AppID      Rank       -           -
//	location          ID         -          Epoch       Node
//	stale-sender      ID         SeenEpoch  KnownEpoch  Node
//
// (core.InstallAck is the core kind encoded the same way.) A kind's
// constructor, the payload's Event method, sets the kind with the words;
// its accessor, XOf, reads them back and reports false for any other kind.
// An install keeps its spec's pointer in Data. Submissions, PID tables and
// progress headers keep theirs too.
// ---------------------------------------------------------------------------

// boolWord encodes a bool in an inline word.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// rankEvent is the encoding of the kinds whose payload is an application
// and a rank.
//
//reesift:noalloc
func rankEvent(kind core.EventKind, app AppID, rank int) core.Event {
	return core.Event{Kind: kind, A: uint64(app), B: uint64(rank)}
}

// rankOf reads an application and a rank from an event of kind.
//
//reesift:noalloc
func rankOf(ev core.Event, kind core.EventKind) (AppID, int, bool) {
	if ev.Kind != kind {
		return 0, 0, false
	}
	return AppID(ev.A), int(ev.B), true
}

// Event returns the registration as an EvRegisterDaemon event.
//
//reesift:noalloc
func (r RegisterDaemon) Event() core.Event {
	return core.Event{Kind: EvRegisterDaemon, A: uint64(r.DaemonAID), N: r.Epoch, S: r.Hostname}
}

// RegisterDaemonOf reads an EvRegisterDaemon event.
//
//reesift:noalloc
func RegisterDaemonOf(ev core.Event) (RegisterDaemon, bool) {
	if ev.Kind != EvRegisterDaemon {
		return RegisterDaemon{}, false
	}
	return RegisterDaemon{Hostname: ev.S, DaemonAID: core.AID(ev.A), Epoch: ev.N}, true
}

// Event returns the install as an EvInstallArmor event carrying the spec's
// pointer.
//
//reesift:noalloc
func (i InstallArmor) Event() core.Event {
	return core.Event{Kind: EvInstallArmor, Data: i.Spec}
}

// InstallArmorOf reads an EvInstallArmor event; ok is false for any other
// kind and for an install without a spec.
//
//reesift:noalloc
func InstallArmorOf(ev core.Event) (InstallArmor, bool) {
	spec, ok := ev.Data.(*ArmorSpec)
	if ev.Kind != EvInstallArmor || !ok || spec == nil {
		return InstallArmor{}, false
	}
	return InstallArmor{Spec: spec}, true
}

// Event returns the removal as an EvUninstallArmor event.
//
//reesift:noalloc
func (u UninstallArmor) Event() core.Event {
	return core.Event{Kind: EvUninstallArmor, A: uint64(u.ID)}
}

// UninstallArmorOf reads an EvUninstallArmor event.
//
//reesift:noalloc
func UninstallArmorOf(ev core.Event) (UninstallArmor, bool) {
	if ev.Kind != EvUninstallArmor {
		return UninstallArmor{}, false
	}
	return UninstallArmor{ID: core.AID(ev.A)}, true
}

// Event returns the failure report as an EvArmorFailed event.
//
//reesift:noalloc
func (f ArmorFailed) Event() core.Event {
	return core.Event{Kind: EvArmorFailed, A: uint64(f.ID), B: boolWord(f.Hang), S: f.Reason}
}

// ArmorFailedOf reads an EvArmorFailed event.
//
//reesift:noalloc
func ArmorFailedOf(ev core.Event) (ArmorFailed, bool) {
	if ev.Kind != EvArmorFailed {
		return ArmorFailed{}, false
	}
	return ArmorFailed{ID: core.AID(ev.A), Hang: ev.B != 0, Reason: ev.S}, true
}

// Event returns the launch order as an EvLaunchApp event.
//
//reesift:noalloc
func (l LaunchApp) Event() core.Event {
	return core.Event{Kind: EvLaunchApp, A: uint64(l.AppID), B: uint64(l.Restart)}
}

// LaunchAppOf reads an EvLaunchApp event.
//
//reesift:noalloc
func LaunchAppOf(ev core.Event) (LaunchApp, bool) {
	if ev.Kind != EvLaunchApp {
		return LaunchApp{}, false
	}
	return LaunchApp{AppID: AppID(ev.A), Restart: int(ev.B)}, true
}

// Event returns the binding as an EvAppPID event.
//
//reesift:noalloc
func (a AppPID) Event() core.Event {
	return core.Event{Kind: EvAppPID, A: uint64(a.AppID), B: uint64(a.Rank), N: uint64(a.PID)}
}

// AppPIDOf reads an EvAppPID event.
//
//reesift:noalloc
func AppPIDOf(ev core.Event) (AppPID, bool) {
	if ev.Kind != EvAppPID {
		return AppPID{}, false
	}
	return AppPID{AppID: AppID(ev.A), Rank: int(ev.B), PID: sim.PID(ev.N)}, true
}

// Event returns the announcement as an EvPICreate event.
//
//reesift:noalloc
func (c PICreate) Event() core.Event {
	return core.Event{Kind: EvPICreate, A: uint64(c.AppID), B: uint64(c.Rank), N: uint64(c.Period)}
}

// PICreateOf reads an EvPICreate event.
//
//reesift:noalloc
func PICreateOf(ev core.Event) (PICreate, bool) {
	if ev.Kind != EvPICreate {
		return PICreate{}, false
	}
	return PICreate{AppID: AppID(ev.A), Rank: int(ev.B), Period: time.Duration(ev.N)}, true
}

// Event returns the announcement as an EvAppExiting event.
//
//reesift:noalloc
func (x AppExiting) Event() core.Event { return rankEvent(EvAppExiting, x.AppID, x.Rank) }

// AppExitingOf reads an EvAppExiting event.
//
//reesift:noalloc
func AppExitingOf(ev core.Event) (AppExiting, bool) {
	app, rank, ok := rankOf(ev, EvAppExiting)
	return AppExiting{AppID: app, Rank: rank}, ok
}

// Event returns the report as an EvAppComplete event.
//
//reesift:noalloc
func (c AppComplete) Event() core.Event { return rankEvent(EvAppComplete, c.AppID, c.Rank) }

// AppCompleteOf reads an EvAppComplete event.
//
//reesift:noalloc
func AppCompleteOf(ev core.Event) (AppComplete, bool) {
	app, rank, ok := rankOf(ev, EvAppComplete)
	return AppComplete{AppID: app, Rank: rank}, ok
}

// Event returns the report as an EvAppFailed event.
//
//reesift:noalloc
func (f AppFailed) Event() core.Event {
	return core.Event{Kind: EvAppFailed, A: uint64(f.AppID), B: uint64(f.Rank), N: boolWord(f.Hang), S: f.Reason}
}

// AppFailedOf reads an EvAppFailed event.
//
//reesift:noalloc
func AppFailedOf(ev core.Event) (AppFailed, bool) {
	if ev.Kind != EvAppFailed {
		return AppFailed{}, false
	}
	return AppFailed{AppID: AppID(ev.A), Rank: int(ev.B), Hang: ev.N != 0, Reason: ev.S}, true
}

// Event returns the order as an EvKillApp event.
//
//reesift:noalloc
func (k KillApp) Event() core.Event { return core.Event{Kind: EvKillApp, A: uint64(k.AppID)} }

// KillAppOf reads an EvKillApp event.
//
//reesift:noalloc
func KillAppOf(ev core.Event) (KillApp, bool) {
	if ev.Kind != EvKillApp {
		return KillApp{}, false
	}
	return KillApp{AppID: AppID(ev.A)}, true
}

// Event returns the acknowledgment as an EvKillAppDone event.
//
//reesift:noalloc
func (d KillAppDone) Event() core.Event { return rankEvent(EvKillAppDone, d.AppID, d.Rank) }

// KillAppDoneOf reads an EvKillAppDone event.
//
//reesift:noalloc
func KillAppDoneOf(ev core.Event) (KillAppDone, bool) {
	app, rank, ok := rankOf(ev, EvKillAppDone)
	return KillAppDone{AppID: app, Rank: rank}, ok
}

// Event returns the report as an EvAppDone event.
//
//reesift:noalloc
func (d AppDone) Event() core.Event {
	return core.Event{Kind: EvAppDone, A: uint64(d.AppID), B: uint64(d.Restarts)}
}

// AppDoneOf reads an EvAppDone event.
//
//reesift:noalloc
func AppDoneOf(ev core.Event) (AppDone, bool) {
	if ev.Kind != EvAppDone {
		return AppDone{}, false
	}
	return AppDone{AppID: AppID(ev.A), Restarts: int(ev.B)}, true
}

// Event returns the notice as an EvChannelOpen event.
//
//reesift:noalloc
func (c ChannelOpen) Event() core.Event { return rankEvent(EvChannelOpen, c.AppID, c.Rank) }

// ChannelOpenOf reads an EvChannelOpen event.
//
//reesift:noalloc
func ChannelOpenOf(ev core.Event) (ChannelOpen, bool) {
	app, rank, ok := rankOf(ev, EvChannelOpen)
	return ChannelOpen{AppID: app, Rank: rank}, ok
}

// Event returns the placement as an EvLocation event.
//
//reesift:noalloc
func (l Location) Event() core.Event {
	return core.Event{Kind: EvLocation, A: uint64(l.ID), N: l.Epoch, S: l.Node}
}

// LocationOf reads an EvLocation event.
//
//reesift:noalloc
func LocationOf(ev core.Event) (Location, bool) {
	if ev.Kind != EvLocation {
		return Location{}, false
	}
	return Location{ID: core.AID(ev.A), Node: ev.S, Epoch: ev.N}, true
}

// Event returns the report as an EvStaleSender event.
//
//reesift:noalloc
func (r StaleSender) Event() core.Event {
	return core.Event{Kind: EvStaleSender, A: uint64(r.ID), B: r.SeenEpoch, N: r.KnownEpoch, S: r.Node}
}

// StaleSenderOf reads an EvStaleSender event.
//
//reesift:noalloc
func StaleSenderOf(ev core.Event) (StaleSender, bool) {
	if ev.Kind != EvStaleSender {
		return StaleSender{}, false
	}
	return StaleSender{ID: core.AID(ev.A), SeenEpoch: ev.B, KnownEpoch: ev.N, Node: ev.S}, true
}
