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
	// initialization (Table 1, step 1c). Data: RegisterDaemon.
	EvRegisterDaemon core.EventKind = "sift.register-daemon"
	// EvInstallArmor instructs a daemon to install an ARMOR process on
	// its node. Data: InstallArmor.
	EvInstallArmor core.EventKind = "sift.install-armor"
	// EvUninstallArmor instructs a daemon to remove a local ARMOR.
	// Data: UninstallArmor.
	EvUninstallArmor core.EventKind = "sift.uninstall-armor"
	// EvArmorFailed notifies the FTM that a local ARMOR died. Data:
	// ArmorFailed.
	EvArmorFailed core.EventKind = "sift.armor-failed"
	// EvSubmitApp submits an application for execution (SCC to FTM).
	// Data: SubmitApp.
	EvSubmitApp core.EventKind = "sift.submit-app"
	// EvLaunchApp instructs the rank-0 Execution ARMOR to start the
	// application process. Data: LaunchApp.
	EvLaunchApp core.EventKind = "sift.launch-app"
	// EvAppPIDs reports the process IDs of MPI ranks 1..n-1, sent by
	// the rank-0 process to the FTM (Table 1, step 6). Data: AppPIDs.
	EvAppPIDs core.EventKind = "sift.app-pids"
	// EvAppPID forwards one rank's process ID from the FTM to that
	// rank's Execution ARMOR (Table 1, step 7). Data: AppPID.
	EvAppPID core.EventKind = "sift.app-pid"
	// EvPICreate creates the progress-indicator channel: the
	// application tells its Execution ARMOR at what period to check
	// for progress. Data: PICreate.
	EvPICreate core.EventKind = "sift.pi-create"
	// EvProgress is a progress-indicator update. Data: *Progress; the
	// counter is the event's N.
	EvProgress core.EventKind = "sift.progress"
	// EvAppExiting tells the Execution ARMOR the local application
	// process is terminating normally (so the exit is not
	// misinterpreted as a crash). Data: AppExiting.
	EvAppExiting core.EventKind = "sift.app-exiting"
	// EvAppComplete reports a rank's normal completion to the FTM.
	// Data: AppComplete.
	EvAppComplete core.EventKind = "sift.app-complete"
	// EvAppFailed reports an application failure (crash, hang, or
	// incorrect output) to the FTM. Data: AppFailed.
	EvAppFailed core.EventKind = "sift.app-failed"
	// EvKillApp instructs an Execution ARMOR to kill its application
	// process during whole-application recovery. Data: KillApp.
	EvKillApp core.EventKind = "sift.kill-app"
	// EvKillAppDone acknowledges EvKillApp. Data: KillAppDone.
	EvKillAppDone core.EventKind = "sift.kill-app-done"
	// EvAppDone reports application completion to the SCC. Data:
	// AppDone.
	EvAppDone core.EventKind = "sift.app-done"
	// EvChannelOpen completes the Execution ARMOR-to-application
	// channel establishment for ranks 1..n-1. Data: ChannelOpen.
	EvChannelOpen core.EventKind = "sift.channel-open"
	// EvLocation broadcasts AID-to-node placements from the FTM to the
	// daemons' location caches. Data: Location.
	EvLocation core.EventKind = "sift.location"
	// EvStaleSender reports to the FTM that a daemon rejected traffic
	// from a superseded ARMOR incarnation (a healed split brain). The
	// FTM answers with a full location re-broadcast so the stale
	// incarnation's node learns the authoritative placements and evicts
	// it. Data: StaleSender.
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

// InstallArmor instructs a daemon to install an ARMOR.
type InstallArmor struct {
	Spec ArmorSpec
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
