package sift

import (
	"iter"
	"math/bits"
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
	// EventLog.Beat), counted and mirrored but never stored.
	// "app=<id> i=<n>".
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
// read. An entry is 40 bytes.
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

// The chunks of a log's entry storage: the first holds logChunkFirst
// entries and each later one twice its predecessor's, for logChunkGrown
// chunks, and every chunk after those holds logChunkMax. A full chunk is
// never grown or copied: the next entry starts a new one.
const (
	logChunkFirst = 32
	logChunkGrown = 8
	logChunkMax   = logChunkFirst << (logChunkGrown - 1)
	// logGrownEntries is how many entries the growing chunks hold.
	logGrownEntries = logChunkFirst * (1<<logChunkGrown - 1)
)

// chunkCap is the capacity of chunk c.
func chunkCap(c int) int {
	if c >= logChunkGrown {
		return logChunkMax
	}
	return logChunkFirst << c
}

// locate returns the chunk holding stored entry p and its index there.
func locate(p int) (c, i int) {
	if p < logGrownEntries {
		c = bits.Len(uint(p/logChunkFirst+1)) - 1
		return c, p - logChunkFirst*(1<<c-1)
	}
	p -= logGrownEntries
	return logChunkGrown + p/logChunkMax, p % logChunkMax
}

// EventLog collects environment observations for the experiment harness.
// It is measurement infrastructure, not part of the simulated system.
//
// Entries are added through the log's methods and read through Each, All,
// First, Last, Count and Len. The log stores them in chunks that are
// never copied, with each kind's first and latest position indexed, so
// First and Last are O(1) and All walks only its kind's span. A relay
// beat (LogChaosBeat, see Beat) is counted and mirrored to the sink but
// never stored: Count and Len include beats, and Each, All, First and
// Last never list one.
type EventLog struct {
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

	// chunks holds the stored entries in order: full chunks, then the
	// one being filled. Its first logChunkGrown headers live in inline.
	chunks [][]LogEntry
	inline [logChunkGrown][]LogEntry
	stored int
	// first and last are each kind's first and latest stored position,
	// meaningful while the kind has a stored entry.
	first, last [numLogKinds]int32
	counts      [numLogKinds]int
	fold        *BeatFold

	pending    map[core.AID]Detection
	pendingApp map[AppID]AppDetection
	interned   map[string]*logRef
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	l := &EventLog{
		pending:    make(map[core.AID]Detection),
		pendingApp: make(map[AppID]AppDetection),
	}
	l.chunks = l.inline[:0]
	return l
}

// add stores e, indexes and counts it, and mirrors it to the sink.
func (l *EventLog) add(e LogEntry) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		l.chunks = append(l.chunks, make([]LogEntry, 0, chunkCap(n)))
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], e)
	p := int32(l.stored)
	l.stored++
	if l.counts[e.Kind] == 0 {
		l.first[e.Kind] = p
	}
	l.last[e.Kind] = p
	l.counts[e.Kind]++
	l.mirror(e)
}

// mirror emits e to the sink. Only a traced log renders the entry's text.
func (l *EventLog) mirror(e LogEntry) {
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

// BeatFold is the beat-gap record of one application, folded as its beats
// arrive (EventLog.FoldBeats): the chaos availability measurement's input.
// Each gap between consecutive beats is measured against the period the
// later beat was sent with; an excess over that period beyond Grace is one
// down interval.
type BeatFold struct {
	// App is the observed application and Grace the slack before a gap's
	// excess counts as down.
	App   AppID
	Grace time.Duration

	// Beats is how many beats App logged; First and Last are the times of
	// its first and latest, and Period the latest beat's period.
	Beats       int
	First, Last time.Duration
	Period      time.Duration
	// Down is every excess beyond Grace, in order, and Downtime their sum.
	Down     []time.Duration
	Downtime time.Duration
}

// beat folds one beat at at, sent with the given period.
func (f *BeatFold) beat(at, period time.Duration) {
	if f.Beats == 0 {
		f.First = at
	} else if excess := at - f.Last - period; excess > f.Grace {
		f.Down = append(f.Down, excess)
		f.Downtime += excess
	}
	f.Last, f.Period = at, period
	f.Beats++
}

// FoldBeats folds every later beat of f.App into f.
func (l *EventLog) FoldBeats(f *BeatFold) { l.fold = f }

// Beat records one acknowledged beat i of application app, which beats
// every period: the relay service's progress record (LogChaosBeat). The
// beat is counted, folded into the log's BeatFold when it is app's, and
// mirrored to the sink; it is not stored, and it allocates only when the
// fold records a down interval.
func (l *EventLog) Beat(at time.Duration, app AppID, i uint64, period time.Duration) {
	l.counts[LogChaosBeat]++
	if l.fold != nil && l.fold.App == app {
		l.fold.beat(at, period)
	}
	l.mirror(LogEntry{At: at, Kind: LogChaosBeat, id: uint64(app), n: i})
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

// Each returns the stored entries in the order they were recorded.
func (l *EventLog) Each() iter.Seq[LogEntry] {
	return func(yield func(LogEntry) bool) {
		for _, c := range l.chunks {
			for _, e := range c {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// All returns the stored entries of one kind, in order. It walks only
// from the kind's first entry to its latest.
func (l *EventLog) All(kind LogKind) iter.Seq[LogEntry] {
	return func(yield func(LogEntry) bool) {
		if !l.holds(kind) {
			return
		}
		left := l.counts[kind]
		for c, i := locate(int(l.first[kind])); ; c, i = c+1, 0 {
			for _, e := range l.chunks[c][i:] {
				if e.Kind != kind {
					continue
				}
				if !yield(e) {
					return
				}
				if left--; left == 0 {
					return
				}
			}
		}
	}
}

// First returns the earliest stored entry of a kind.
func (l *EventLog) First(kind LogKind) (LogEntry, bool) {
	if !l.holds(kind) {
		return LogEntry{}, false
	}
	return l.at(l.first[kind]), true
}

// Last returns the latest stored entry of a kind.
func (l *EventLog) Last(kind LogKind) (LogEntry, bool) {
	if !l.holds(kind) {
		return LogEntry{}, false
	}
	return l.at(l.last[kind]), true
}

// holds reports whether the log stores an entry of kind.
func (l *EventLog) holds(kind LogKind) bool {
	return kind != LogChaosBeat && l.counts[kind] > 0
}

// at returns stored entry p.
func (l *EventLog) at(p int32) LogEntry {
	c, i := locate(int(p))
	return l.chunks[c][i]
}

// Count returns how many entries of a kind were recorded, beats included.
func (l *EventLog) Count(kind LogKind) int { return l.counts[kind] }

// Len returns how many entries were recorded, beats included.
func (l *EventLog) Len() int { return l.stored + l.counts[LogChaosBeat] }
