package sift

import (
	"strings"
	"time"

	"reesift/internal/core"
	"reesift/internal/trace"
)

// LogEntry is one observational record emitted by the environment.
type LogEntry struct {
	At     time.Duration
	Kind   string
	Detail string
}

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
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{
		pending:    make(map[core.AID]Detection),
		pendingApp: make(map[AppID]AppDetection),
	}
}

// Add appends a generic entry.
func (l *EventLog) Add(at time.Duration, kind, detail string) {
	l.Entries = append(l.Entries, LogEntry{At: at, Kind: kind, Detail: detail})
	if l.Sink.Enabled() {
		l.Sink.Emit(trace.Record{At: at, Kind: trace.KindLog, Op: kind, Detail: detail})
	}
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
func (l *EventLog) All(kind string) []LogEntry {
	var out []LogEntry
	for _, e := range l.Entries {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// First returns the earliest entry of a kind.
func (l *EventLog) First(kind string) (LogEntry, bool) {
	for _, e := range l.Entries {
		if e.Kind == kind {
			return e, true
		}
	}
	return LogEntry{}, false
}

// Last returns the latest entry of a kind.
func (l *EventLog) Last(kind string) (LogEntry, bool) {
	for i := len(l.Entries) - 1; i >= 0; i-- {
		if l.Entries[i].Kind == kind {
			return l.Entries[i], true
		}
	}
	return LogEntry{}, false
}

// Count returns how many entries of a kind were recorded.
func (l *EventLog) Count(kind string) int {
	n := 0
	for _, e := range l.Entries {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// CountDetail counts entries of a kind whose detail contains substr.
func (l *EventLog) CountDetail(kind, substr string) int {
	n := 0
	for _, e := range l.Entries {
		if e.Kind == kind && strings.Contains(e.Detail, substr) {
			n++
		}
	}
	return n
}
