package sift

import (
	"strconv"
	"time"

	"reesift/internal/core"
	"reesift/internal/trace"
)

// LogKind names what a log entry records. The list is closed: every entry
// the environment (or the chaos relay service, LogChaosBeat) writes has
// one of these kinds, and String gives its name in rendered text and
// traces.
type LogKind uint8

// The log kinds. Each comment gives the entry's rendered detail. The
// application kinds, whose subject is an AppID, run contiguously from
// LogAppSubmit to LogChaosBeat (see appKind).
const (
	_ LogKind = iota
	// LogSiftInitialized: the SCC saw the environment up. Detail empty.
	LogSiftInitialized
	// LogDaemonRegistered: a daemon registered with the FTM. "<node>".
	LogDaemonRegistered
	// LogDaemonRebound: a known node's daemon registered again. "<node>".
	LogDaemonRebound
	// LogDaemonReregistered: the SCC re-registered a restarted node's
	// daemon. "<node>".
	LogDaemonReregistered
	// LogDaemonReinstalled: a boot agent reinstalled its daemon. "<node>".
	LogDaemonReinstalled
	// LogBootAgentStarted: a restarted node's boot agent ran. "<node>".
	LogBootAgentStarted
	// LogNodeDownObserved: the SCC saw a node go down. "<node>".
	LogNodeDownObserved
	// LogNodeRestartDetected: the SCC saw a node come back. "<node>".
	LogNodeRestartDetected
	// LogNodeDeclaredFailed: the FTM declared a node failed. "<node>".
	LogNodeDeclaredFailed
	// LogArmorInstalled: a daemon installed an ARMOR.
	// "<aid> kind=<kind> node=<node>".
	LogArmorInstalled
	// LogArmorUninstalled: a daemon removed an ARMOR. "<aid>".
	LogArmorUninstalled
	// LogArmorUp: the FTM learned an ARMOR is installed. "<aid>".
	LogArmorUp
	// LogArmorReregistered: the SCC re-registered a placed ARMOR.
	// "<aid> node=<node>".
	LogArmorReregistered
	// LogArmorMigrated: the FTM moved an ARMOR off a failed node.
	// "<aid> -> <node>".
	LogArmorMigrated
	// LogArmorCrashDetected: a daemon's waitpid saw an ARMOR die.
	// "<aid> reason=<quoted reason>".
	LogArmorCrashDetected
	// LogArmorHangDetected: a daemon's are-you-alive poll timed out.
	// "<aid>".
	LogArmorHangDetected
	// LogArmorRecoveryInitiated: the FTM began recovering an ARMOR.
	// "<aid>".
	LogArmorRecoveryInitiated
	// LogFailureNotificationAborted: the FTM dropped a failure
	// notification for an ARMOR it does not know. "<aid>".
	LogFailureNotificationAborted
	// LogArmorStoodDown: a daemon evicted a superseded incarnation.
	// "<aid> epoch=<e> superseded-by=<e> at <node> (now on <node>)".
	LogArmorStoodDown
	// LogInstallRefusedStale: a daemon refused an install from, or of, a
	// superseded incarnation. "<aid> from stale <aid> epoch=<e><<e>" or
	// "<aid> epoch=<e><<e> node=<node>".
	LogInstallRefusedStale
	// LogStaleSenderDropped: traffic from a superseded incarnation was
	// dropped. "<aid> epoch=<e><<e> at <node>" at a daemon,
	// "<aid> epoch=<e> at ftm" at the FTM.
	LogStaleSenderDropped
	// LogStaleSenderReported: the FTM heard of a stale sender.
	// "<aid> epoch=<e><<e> via <node>".
	LogStaleSenderReported
	// LogEpochReconcile: the FTM re-broadcast its locations.
	// "location re-broadcast".
	LogEpochReconcile
	// LogInvalidDestination: a daemon caught an envelope to AID 0.
	// "src=<aid> dst=0".
	LogInvalidDestination
	// LogUnroutableDestination: a daemon could not route an envelope.
	// "<aid>".
	LogUnroutableDestination
	// LogFTMFailureDetected: the Heartbeat ARMOR found the FTM dead.
	// Detail empty.
	LogFTMFailureDetected
	// LogFTMReinstallAttempt: the Heartbeat ARMOR tried to install the FTM
	// on a node. "<node>".
	LogFTMReinstallAttempt
	// LogFTMMigrated: the FTM came up on a new node. "<node> -> <node>".
	LogFTMMigrated
	// LogFTMRestoreSent: the Heartbeat ARMOR told the FTM to restore.
	// Detail empty.
	LogFTMRestoreSent
	// LogAppSubmit: the SCC submitted an application. "app=<id>".
	LogAppSubmit
	// LogAppSubmitted: the FTM accepted it. "app=<id> name=<name>".
	LogAppSubmitted
	// LogAppStarted: the first launch of rank 0. "app=<id> pid=<pid>".
	LogAppStarted
	// LogAppRelaunched: a later launch. "app=<id> restart=<n>".
	LogAppRelaunched
	// LogAppRankExit: a rank returned. "app=<id> rank=<r> restart=<n>".
	LogAppRankExit
	// LogAppCrashDetected: an Execution ARMOR saw its rank die.
	// "app=<id> rank=<r> reason=<quoted reason>", or "reason=proc-table"
	// when the process-table poll found it gone.
	LogAppCrashDetected
	// LogAppHangDetected: the progress indicator stalled.
	// "app=<id> rank=<r> counter=<n>", with " (watchdog)" appended when
	// the interrupt-driven watchdog expired.
	LogAppHangDetected
	// LogAppFailureReported: the FTM heard of an application failure.
	// "app=<id> rank=<r> hang=<bool> reason=<reason>".
	LogAppFailureReported
	// LogAppRestartInitiated: the FTM relaunched an application.
	// "app=<id>".
	LogAppRestartInitiated
	// LogAppFinished: the FTM saw every rank complete.
	// "app=<id> restarts=<n>".
	LogAppFinished
	// LogSCCNotified: the SCC received the completion.
	// "app=<id> restarts=<n>".
	LogSCCNotified
	// LogChaosBeat: the chaos relay service's acknowledged beat (see
	// EventLog.Beat). "app=<id> i=<n>".
	LogChaosBeat

	numLogKinds
)

var logKindNames = [numLogKinds]string{
	LogSiftInitialized:            "sift-initialized",
	LogDaemonRegistered:           "daemon-registered",
	LogDaemonRebound:              "daemon-rebound",
	LogDaemonReregistered:         "daemon-reregistered",
	LogDaemonReinstalled:          "daemon-reinstalled",
	LogBootAgentStarted:           "boot-agent-started",
	LogNodeDownObserved:           "node-down-observed",
	LogNodeRestartDetected:        "node-restart-detected",
	LogNodeDeclaredFailed:         "node-declared-failed",
	LogArmorInstalled:             "armor-installed",
	LogArmorUninstalled:           "armor-uninstalled",
	LogArmorUp:                    "armor-up",
	LogArmorReregistered:          "armor-reregistered",
	LogArmorMigrated:              "armor-migrated",
	LogArmorCrashDetected:         "armor-crash-detected",
	LogArmorHangDetected:          "armor-hang-detected",
	LogArmorRecoveryInitiated:     "armor-recovery-initiated",
	LogFailureNotificationAborted: "failure-notification-aborted",
	LogArmorStoodDown:             "armor-stood-down",
	LogInstallRefusedStale:        "install-refused-stale",
	LogStaleSenderDropped:         "stale-sender-dropped",
	LogStaleSenderReported:        "stale-sender-reported",
	LogEpochReconcile:             "epoch-reconcile",
	LogInvalidDestination:         "invalid-destination",
	LogUnroutableDestination:      "unroutable-destination",
	LogFTMFailureDetected:         "ftm-failure-detected",
	LogFTMReinstallAttempt:        "ftm-reinstall-attempt",
	LogFTMMigrated:                "ftm-migrated",
	LogFTMRestoreSent:             "ftm-restore-sent",
	LogAppSubmit:                  "app-submit",
	LogAppSubmitted:               "app-submitted",
	LogAppStarted:                 "app-started",
	LogAppRelaunched:              "app-relaunched",
	LogAppRankExit:                "app-rank-exit",
	LogAppCrashDetected:           "app-crash-detected",
	LogAppHangDetected:            "app-hang-detected",
	LogAppFailureReported:         "app-failure-reported",
	LogAppRestartInitiated:        "app-restart-initiated",
	LogAppFinished:                "app-finished",
	LogSCCNotified:                "scc-notified",
	LogChaosBeat:                  "chaos-beat",
}

// String returns the kind's name, e.g. "armor-installed".
func (k LogKind) String() string {
	if k == 0 || k >= numLogKinds {
		return "log-kind(" + strconv.Itoa(int(k)) + ")"
	}
	return logKindNames[k]
}

// appKind reports whether entries of k are about an application (their
// subject is an AppID) rather than an ARMOR.
func (k LogKind) appKind() bool {
	return k >= LogAppSubmit && k <= LogChaosBeat
}

// LogEntry is one observational record emitted by the environment. It
// holds the record's values, not its text: Detail renders the text on
// read. An entry is 40 bytes, so a day-long trial's log of beats stays
// small.
type LogEntry struct {
	At   time.Duration
	Kind LogKind

	// flag selects a kind's variant: hang for LogAppFailureReported, the
	// watchdog for LogAppHangDetected, the process-table poll for
	// LogAppCrashDetected, the daemon side for LogStaleSenderDropped and
	// the stale sender for LogInstallRefusedStale.
	flag bool
	// rank is the application rank of application entries.
	rank int32
	// id is the subject: a core.AID, or an AppID for application kinds.
	id uint64
	// n is the kind's number: a counter, epoch, PID, restart count or
	// ARMOR kind.
	n uint64
	// ref holds the entry's text and its rarer second values; nil when
	// it has none.
	ref *logRef
}

// logRef is the part of an entry that few entries have. A ref holding only
// text is interned per log (EventLog.intern), so an entry about a node or
// with a recurring reason shares it.
type logRef struct {
	// s is the node, reason or application name; s2 a second node.
	s, s2 string
	// id2 is a second ARMOR and n2 a second epoch.
	id2 core.AID
	n2  uint64
}

// AID is the ARMOR the entry is about, or zero for an application entry.
func (e LogEntry) AID() core.AID {
	if e.Kind.appKind() {
		return core.InvalidAID
	}
	return core.AID(e.id)
}

// App is the application the entry is about, or zero for an ARMOR or node
// entry.
func (e LogEntry) App() AppID {
	if !e.Kind.appKind() {
		return 0
	}
	return AppID(e.id)
}

// Node is the node the entry names first, or "" if it names none.
func (e LogEntry) Node() string {
	switch e.Kind {
	case LogDaemonRegistered, LogDaemonRebound, LogDaemonReregistered, LogDaemonReinstalled,
		LogBootAgentStarted, LogNodeDownObserved, LogNodeRestartDetected, LogNodeDeclaredFailed,
		LogArmorInstalled, LogArmorReregistered, LogArmorMigrated, LogArmorStoodDown,
		LogStaleSenderReported, LogFTMReinstallAttempt, LogFTMMigrated:
		return e.ref.s
	case LogInstallRefusedStale, LogStaleSenderDropped:
		if e.ref != nil {
			return e.ref.s
		}
	}
	return ""
}

// ArmorKind is the kind of ARMOR a LogArmorInstalled entry installed.
func (e LogEntry) ArmorKind() ArmorKind {
	if e.Kind != LogArmorInstalled {
		return 0
	}
	return ArmorKind(int64(e.n))
}

// Detail renders the entry's text, e.g. "armor-1100 kind=Execution
// node=node-a1" (see the LogKind constants for each kind's shape).
func (e LogEntry) Detail() string {
	var buf [64]byte
	return string(e.appendDetail(buf[:0]))
}

// appendDetail appends the entry's detail text to b.
func (e LogEntry) appendDetail(b []byte) []byte {
	switch e.Kind {
	case LogEpochReconcile:
		return append(b, "location re-broadcast"...)
	case LogDaemonRegistered, LogDaemonRebound, LogDaemonReregistered, LogDaemonReinstalled,
		LogBootAgentStarted, LogNodeDownObserved, LogNodeRestartDetected, LogNodeDeclaredFailed,
		LogFTMReinstallAttempt:
		return append(b, e.ref.s...)
	case LogFTMMigrated:
		return text(append(b, e.ref.s...), " -> ", e.ref.s2)
	case LogArmorUninstalled, LogArmorUp, LogArmorHangDetected, LogArmorRecoveryInitiated,
		LogFailureNotificationAborted, LogUnroutableDestination:
		return armor(b, "", e.id)
	case LogInvalidDestination:
		return append(armor(b, "src=", e.id), " dst=0"...)
	case LogArmorInstalled:
		return text(text(armor(b, "", e.id), " kind=", e.ArmorKind().String()), " node=", e.ref.s)
	case LogArmorReregistered:
		return text(armor(b, "", e.id), " node=", e.ref.s)
	case LogArmorMigrated:
		return text(armor(b, "", e.id), " -> ", e.ref.s)
	case LogArmorCrashDetected:
		return strconv.AppendQuote(append(armor(b, "", e.id), " reason="...), e.ref.s)
	case LogArmorStoodDown:
		b = unum(unum(armor(b, "", e.id), " epoch=", e.n), " superseded-by=", e.ref.n2)
		return append(text(text(b, " at ", e.ref.s), " (now on ", e.ref.s2), ')')
	case LogInstallRefusedStale:
		b = armor(b, "", e.id)
		if e.flag {
			return e.epochs(armor(b, " from stale ", uint64(e.ref.id2)))
		}
		return text(e.epochs(b), " node=", e.ref.s)
	case LogStaleSenderDropped:
		b = armor(b, "", e.id)
		if e.flag {
			return text(e.epochs(b), " at ", e.ref.s)
		}
		return append(unum(b, " epoch=", e.n), " at ftm"...)
	case LogStaleSenderReported:
		return text(e.epochs(armor(b, "", e.id)), " via ", e.ref.s)
	case LogAppSubmit, LogAppRestartInitiated:
		return unum(b, "app=", e.id)
	case LogAppSubmitted:
		return text(unum(b, "app=", e.id), " name=", e.ref.s)
	case LogAppStarted:
		return inum(unum(b, "app=", e.id), " pid=", int64(e.n))
	case LogAppRelaunched:
		return inum(unum(b, "app=", e.id), " restart=", int64(e.n))
	case LogAppRankExit:
		return inum(e.appRank(b), " restart=", int64(e.n))
	case LogAppCrashDetected:
		if e.flag {
			return append(e.appRank(b), " reason=proc-table"...)
		}
		return strconv.AppendQuote(append(e.appRank(b), " reason="...), e.ref.s)
	case LogAppHangDetected:
		b = unum(e.appRank(b), " counter=", e.n)
		if e.flag {
			b = append(b, " (watchdog)"...)
		}
		return b
	case LogAppFailureReported:
		b = strconv.AppendBool(append(e.appRank(b), " hang="...), e.flag)
		return text(b, " reason=", e.ref.s)
	case LogAppFinished, LogSCCNotified:
		return inum(unum(b, "app=", e.id), " restarts=", int64(e.n))
	case LogChaosBeat:
		return unum(unum(b, "app=", e.id), " i=", e.n)
	}
	return b
}

// appRank appends "app=<id> rank=<r>".
func (e LogEntry) appRank(b []byte) []byte {
	return inum(unum(b, "app=", e.id), " rank=", int64(e.rank))
}

// epochs appends " epoch=<n><<n2>", a superseded epoch and the one known.
func (e LogEntry) epochs(b []byte) []byte {
	return unum(unum(b, " epoch=", e.n), "<", e.ref.n2)
}

// text appends label and s.
func text(b []byte, label, s string) []byte { return append(append(b, label...), s...) }

// unum appends label and v in decimal.
func unum(b []byte, label string, v uint64) []byte {
	return strconv.AppendUint(append(b, label...), v, 10)
}

// inum appends label and v in decimal.
func inum(b []byte, label string, v int64) []byte {
	return strconv.AppendInt(append(b, label...), v, 10)
}

// armor appends label and the ARMOR id as core.AID.String renders it.
func armor(b []byte, label string, id uint64) []byte { return unum(append(b, label...), "armor-", id) }

// Detection records an ARMOR failure detection (by a daemon's waitpid or
// are-you-alive timeout, or the Heartbeat ARMOR's poll).
type Detection struct {
	At     time.Duration
	ID     core.AID
	Reason string
	Hang   bool
}

// AppDetection records an application failure detection by an Execution
// ARMOR.
type AppDetection struct {
	At     time.Duration
	App    AppID
	Rank   int
	Reason string
	Hang   bool
}

// Recovery pairs a detection with the completed reinstall.
type Recovery struct {
	ID         core.AID
	DetectedAt time.Duration
	RestoredAt time.Duration
}

// AppRecovery pairs an application failure detection with the completed
// restart (the relaunched process running its code).
type AppRecovery struct {
	App         AppID
	DetectedAt  time.Duration
	RestartedAt time.Duration
}

// EventLog collects environment observations for the experiment harness.
// It is measurement infrastructure, not part of the simulated system.
type EventLog struct {
	// Entries is every entry in order. Read it; add through the log's
	// methods, which keep the per-kind counts.
	Entries       []LogEntry
	Detections    []Detection
	AppDetections []AppDetection
	Recoveries    []Recovery
	AppRecoveries []AppRecovery

	// Sink, when set, receives a structured mirror of every log
	// mutation — the protocol-level span stream (ARMOR installs, FTM
	// migrations, detections, recovery windows) the trace subsystem
	// records alongside the kernel's substrate events. The injection
	// Runner wires the trial's trace.Recorder here.
	Sink *trace.Recorder

	pending    map[core.AID]Detection
	pendingApp map[AppID]AppDetection
	counts     [numLogKinds]int
	interned   map[string]*logRef
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{
		pending:    make(map[core.AID]Detection),
		pendingApp: make(map[AppID]AppDetection),
	}
}

// add appends e, counts it, and mirrors it to the sink. Only a traced
// log renders the entry's text here.
func (l *EventLog) add(e LogEntry) {
	l.Entries = append(l.Entries, e)
	l.counts[e.Kind]++
	if l.Sink.Enabled() {
		l.Sink.Emit(trace.Record{At: e.At, Kind: trace.KindLog, Op: e.Kind.String(), Detail: e.Detail()})
	}
}

// intern returns the log's shared ref holding only s, making it on first
// use.
func (l *EventLog) intern(s string) *logRef {
	r, ok := l.interned[s]
	if !ok {
		if l.interned == nil {
			l.interned = make(map[string]*logRef)
		}
		r = &logRef{s: s}
		l.interned[s] = r
	}
	return r
}

// addNode appends an entry whose detail is a node name.
func (l *EventLog) addNode(at time.Duration, kind LogKind, node string) {
	l.add(LogEntry{At: at, Kind: kind, ref: l.intern(node)})
}

// addArmor appends an entry about an ARMOR with no other values.
func (l *EventLog) addArmor(at time.Duration, kind LogKind, id core.AID) {
	l.add(LogEntry{At: at, Kind: kind, id: uint64(id)})
}

// addApp appends an entry about an application rank with one number.
func (l *EventLog) addApp(at time.Duration, kind LogKind, app AppID, rank int, n uint64) {
	l.add(LogEntry{At: at, Kind: kind, id: uint64(app), rank: int32(rank), n: n})
}

// Beat records one acknowledged beat i of application app: the relay
// service's progress record, which the chaos availability measurement
// reads back (LogChaosBeat). It allocates only when Entries grows.
func (l *EventLog) Beat(at time.Duration, app AppID, i uint64) {
	l.add(LogEntry{At: at, Kind: LogChaosBeat, id: uint64(app), n: i})
}

// Detect records an ARMOR failure detection and opens a recovery
// measurement window.
func (l *EventLog) Detect(at time.Duration, id core.AID, reason string, hang bool) {
	d := Detection{At: at, ID: id, Reason: reason, Hang: hang}
	l.Detections = append(l.Detections, d)
	if _, open := l.pending[id]; !open {
		l.pending[id] = d
	}
	if l.Sink.Enabled() {
		l.Sink.Emit(trace.Record{At: at, Kind: trace.KindDetect, Op: id.String(),
			Detail: reason, A: b2i(hang)})
	}
}

// DetectApp records an application failure detection and opens the
// application recovery window.
func (l *EventLog) DetectApp(at time.Duration, app AppID, rank int, reason string, hang bool) {
	d := AppDetection{At: at, App: app, Rank: rank, Reason: reason, Hang: hang}
	l.AppDetections = append(l.AppDetections, d)
	if _, open := l.pendingApp[app]; !open {
		l.pendingApp[app] = d
	}
	if l.Sink.Enabled() {
		l.Sink.Emit(trace.Record{At: at, Kind: trace.KindDetect, Op: "app",
			A: b2i(hang), B: int64(rank), PID: int64(app), Detail: reason})
	}
}

// b2i is the trace encoding of a flag argument.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// AppRecoveryDone closes a pending application recovery window.
func (l *EventLog) AppRecoveryDone(at time.Duration, app AppID) {
	d, open := l.pendingApp[app]
	if !open {
		return
	}
	delete(l.pendingApp, app)
	l.AppRecoveries = append(l.AppRecoveries, AppRecovery{App: app, DetectedAt: d.At, RestartedAt: at})
	if l.Sink.Enabled() {
		l.Sink.Emit(trace.Record{At: at, Kind: trace.KindRecovery, Op: "app",
			PID: int64(app), A: int64(d.At)})
	}
}

// RecoveryInFlight reports whether any failure detection — ARMOR or
// application — has an open (not yet completed) recovery window. The
// chaos double-fault process conditions its second stage on this: the
// paper's crash-during-recovery scenario only exists while a recovery is
// actually in flight.
func (l *EventLog) RecoveryInFlight() bool {
	return len(l.pending) > 0 || len(l.pendingApp) > 0
}

// RecoveryDone closes a pending recovery window for an ARMOR.
func (l *EventLog) RecoveryDone(at time.Duration, id core.AID) {
	d, open := l.pending[id]
	if !open {
		return
	}
	delete(l.pending, id)
	l.Recoveries = append(l.Recoveries, Recovery{ID: id, DetectedAt: d.At, RestoredAt: at})
	if l.Sink.Enabled() {
		l.Sink.Emit(trace.Record{At: at, Kind: trace.KindRecovery, Op: id.String(), A: int64(d.At)})
	}
}

// All returns entries of one kind.
func (l *EventLog) All(kind LogKind) []LogEntry {
	out := make([]LogEntry, 0, l.counts[kind])
	for _, e := range l.Entries {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// First returns the earliest entry of a kind.
func (l *EventLog) First(kind LogKind) (LogEntry, bool) {
	if l.counts[kind] > 0 {
		for _, e := range l.Entries {
			if e.Kind == kind {
				return e, true
			}
		}
	}
	return LogEntry{}, false
}

// Last returns the latest entry of a kind.
func (l *EventLog) Last(kind LogKind) (LogEntry, bool) {
	if l.counts[kind] > 0 {
		for i := len(l.Entries) - 1; i >= 0; i-- {
			if l.Entries[i].Kind == kind {
				return l.Entries[i], true
			}
		}
	}
	return LogEntry{}, false
}

// Count returns how many entries of a kind were recorded.
func (l *EventLog) Count(kind LogKind) int { return l.counts[kind] }
