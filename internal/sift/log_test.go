package sift

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"reesift/internal/core"
)

// TestLogEntryAndEnvelopeSizes pins the two per-message and per-entry
// layouts the steady state allocates most of: a log entry stays within
// 40–48 bytes (a week-long chaos trial stores thousands), and an envelope
// box, which carries its event's small payload inline, stays 128 bytes,
// inside the allocator's 128-byte size class.
func TestLogEntryAndEnvelopeSizes(t *testing.T) {
	if n := unsafe.Sizeof(LogEntry{}); n < 40 || n > 48 {
		t.Errorf("LogEntry is %d bytes, want 40–48", n)
	}
	if n := unsafe.Sizeof(core.Envelope{}); n != 128 {
		t.Errorf("core.Envelope is %d bytes, want 128", n)
	}
}

// TestLogKindNames checks that every kind has its own name.
func TestLogKindNames(t *testing.T) {
	seen := map[string]LogKind{}
	for k := LogKind(1); k < numLogKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both %q", prev, k, name)
		}
		seen[name] = k
	}
}

// TestLogDetailFormats renders one entry of every variant, each against
// the format text it stands for, including the variants the rendering
// golden's trials never reach.
func TestLogDetailFormats(t *testing.T) {
	l := NewEventLog()
	const (
		aid  core.AID = 1100
		src  core.AID = 2
		node          = "node-a1"
	)
	cases := []struct {
		e    LogEntry
		want string
	}{
		{LogEntry{Kind: LogSiftInitialized}, ""},
		{LogEntry{Kind: LogEpochReconcile}, "location re-broadcast"},
		{LogEntry{Kind: LogDaemonRegistered, ref: l.intern(node)}, node},
		{LogEntry{Kind: LogFTMMigrated, ref: &logRef{s: node, s2: "node-b2"}}, fmt.Sprintf("%s -> %s", node, "node-b2")},
		{LogEntry{Kind: LogArmorUp, id: uint64(aid)}, aid.String()},
		{LogEntry{Kind: LogArmorHangDetected, id: uint64(aid)}, aid.String()},
		{LogEntry{Kind: LogFailureNotificationAborted, id: uint64(aid)}, aid.String()},
		{LogEntry{Kind: LogUnroutableDestination, id: 1 << 63}, core.AID(1 << 63).String()},
		{LogEntry{Kind: LogInvalidDestination, id: uint64(src)}, fmt.Sprintf("src=%s dst=0", src)},
		{LogEntry{Kind: LogArmorInstalled, id: uint64(aid), n: uint64(KindExecution), ref: l.intern(node)},
			fmt.Sprintf("%s kind=%s node=%s", aid, KindExecution, node)},
		{LogEntry{Kind: LogArmorReregistered, id: uint64(aid), ref: l.intern(node)}, fmt.Sprintf("%s node=%s", aid, node)},
		{LogEntry{Kind: LogArmorMigrated, id: uint64(aid), ref: l.intern(node)}, fmt.Sprintf("%s -> %s", aid, node)},
		{LogEntry{Kind: LogArmorCrashDetected, id: uint64(aid), ref: l.intern("bad \"quote\"\n")},
			fmt.Sprintf("%s reason=%q", aid, "bad \"quote\"\n")},
		{LogEntry{Kind: LogArmorStoodDown, id: uint64(src), n: 1, ref: &logRef{s: node, s2: "node-b2", n2: 2}},
			fmt.Sprintf("%s epoch=%d superseded-by=%d at %s (now on %s)", src, 1, 2, node, "node-b2")},
		{LogEntry{Kind: LogInstallRefusedStale, id: 1, n: 1, flag: true, ref: &logRef{id2: src, n2: 2}},
			fmt.Sprintf("%s from stale %s epoch=%d<%d", core.AID(1), src, 1, 2)},
		{LogEntry{Kind: LogInstallRefusedStale, id: 1, n: 1, ref: &logRef{s: node, n2: 1 << 40}},
			fmt.Sprintf("%s epoch=%d<%d node=%s", core.AID(1), 1, uint64(1<<40), node)},
		{LogEntry{Kind: LogStaleSenderDropped, id: uint64(src), n: 1, flag: true, ref: &logRef{s: node, n2: 2}},
			fmt.Sprintf("%s epoch=%d<%d at %s", src, 1, 2, node)},
		{LogEntry{Kind: LogStaleSenderDropped, id: uint64(src), n: 1}, fmt.Sprintf("%s epoch=%d at ftm", src, 1)},
		{LogEntry{Kind: LogStaleSenderReported, id: uint64(src), n: 1, ref: &logRef{s: node, n2: 2}},
			fmt.Sprintf("%s epoch=%d<%d via %s", src, 1, 2, node)},
		{LogEntry{Kind: LogAppSubmit, id: 7}, fmt.Sprintf("app=%d", 7)},
		{LogEntry{Kind: LogAppRestartInitiated, id: 7}, fmt.Sprintf("app=%d", 7)},
		{LogEntry{Kind: LogAppSubmitted, id: 7, ref: l.intern("rover-texture")}, fmt.Sprintf("app=%d name=%s", 7, "rover-texture")},
		{LogEntry{Kind: LogAppStarted, id: 7, n: 12}, fmt.Sprintf("app=%d pid=%d", 7, 12)},
		{LogEntry{Kind: LogAppRelaunched, id: 7, n: 3}, fmt.Sprintf("app=%d restart=%d", 7, 3)},
		{LogEntry{Kind: LogAppRankExit, id: 7, rank: 1, n: 3}, fmt.Sprintf("app=%d rank=%d restart=%d", 7, 1, 3)},
		{LogEntry{Kind: LogAppCrashDetected, id: 7, rank: 1, ref: l.intern("segmentation fault")},
			fmt.Sprintf("app=%d rank=%d reason=%q", 7, 1, "segmentation fault")},
		{LogEntry{Kind: LogAppCrashDetected, id: 7, rank: 1, flag: true}, fmt.Sprintf("app=%d rank=%d reason=proc-table", 7, 1)},
		{LogEntry{Kind: LogAppHangDetected, id: 7, n: 1 << 63}, fmt.Sprintf("app=%d rank=%d counter=%d", 7, 0, uint64(1<<63))},
		{LogEntry{Kind: LogAppHangDetected, id: 7, n: 5, flag: true}, fmt.Sprintf("app=%d rank=%d counter=%d (watchdog)", 7, 0, 5)},
		{LogEntry{Kind: LogAppFailureReported, id: 7, rank: 1, flag: true, ref: l.intern("hang")},
			fmt.Sprintf("app=%d rank=%d hang=%v reason=%s", 7, 1, true, "hang")},
		{LogEntry{Kind: LogAppFinished, id: 7, n: 2}, fmt.Sprintf("app=%d restarts=%d", 7, 2)},
		{LogEntry{Kind: LogSCCNotified, id: 7, n: 2}, fmt.Sprintf("app=%d restarts=%d", 7, 2)},
		{LogEntry{Kind: LogChaosBeat, id: 7, n: 17280}, fmt.Sprintf("app=%d i=%d", 7, 17280)},
	}
	for _, c := range cases {
		if got := c.e.Detail(); got != c.want {
			t.Errorf("%s: Detail() = %q, want %q", c.e.Kind, got, c.want)
		}
	}
}

// TestLogTypedReaders checks the typed accessors and the per-kind counts
// the readers use instead of matching rendered text. Beats are counted,
// not stored: All, First and Last never list one.
func TestLogTypedReaders(t *testing.T) {
	l := NewEventLog()
	l.add(LogEntry{At: 1, Kind: LogArmorInstalled, id: uint64(AIDFTM), n: uint64(KindFTM), ref: l.intern("node-a1")})
	l.addApp(2, LogAppStarted, 3, 0, 10)
	l.Beat(3, 3, 1, 5)
	l.Beat(4, 3, 2, 5)
	if e, _ := l.First(LogArmorInstalled); e.AID() != AIDFTM || e.App() != 0 || e.Node() != "node-a1" || e.ArmorKind() != KindFTM {
		t.Errorf("armor entry reads AID %v app %d node %q kind %v", e.AID(), e.App(), e.Node(), e.ArmorKind())
	}
	if e, _ := l.First(LogAppStarted); e.App() != 3 || e.AID() != core.InvalidAID || e.Node() != "" {
		t.Errorf("app entry reads app %d AID %v node %q", e.App(), e.AID(), e.Node())
	}
	if _, ok := l.Last(LogChaosBeat); ok {
		t.Error("Last found a beat, which the log does not store")
	}
	if _, ok := l.First(LogChaosBeat); ok {
		t.Error("First found a beat, which the log does not store")
	}
	listed := len(slices.Collect(l.All(LogChaosBeat)))
	if n := l.Count(LogChaosBeat); n != 2 || listed != 0 {
		t.Errorf("beats counted %d, listed %d, want 2 counted and none listed", n, listed)
	}
	if n, stored := l.Len(), len(slices.Collect(l.Each())); n != 4 || stored != 2 {
		t.Errorf("log holds %d entries of %d recorded, want 2 of 4", stored, n)
	}
	if _, ok := l.First(LogAppRankExit); ok || l.Count(LogAppRankExit) != 0 {
		t.Error("an absent kind was found")
	}
}

// logMachine drives a log with ops, two bytes each: a kind and an
// argument. An op at or above 0xf8 records a run of arg×32 entries of one
// kind, so that inputs cross the growing chunks (255×32 entries) and reach
// full-size ones.
// It checks every reader against a plain slice of the stored entries.
func logMachine(t *testing.T, ops []byte) {
	l := NewEventLog()
	var ref []LogEntry
	counts := map[LogKind]int{}
	at := time.Duration(0)
	record := func(kind LogKind, arg byte) {
		at++
		counts[kind]++
		if kind == LogChaosBeat {
			l.Beat(at, AppID(arg%3), uint64(at), time.Duration(arg))
			return
		}
		e := LogEntry{At: at, Kind: kind, id: uint64(arg), n: uint64(at)}
		l.add(e)
		ref = append(ref, e)
	}
	kindOf := func(b byte) LogKind { return LogKind(1 + int(b)%int(numLogKinds-1)) }
	for i := 0; i+1 < len(ops); i += 2 {
		if op, arg := ops[i], ops[i+1]; op >= 0xf8 {
			for n := int(arg) * logChunkFirst; n > 0; n-- {
				record(kindOf(op+arg), arg)
			}
		} else {
			record(kindOf(op), arg)
		}
	}
	if got := slices.Collect(l.Each()); !slices.Equal(got, ref) {
		t.Fatalf("Each lists %d entries, want the %d stored", len(got), len(ref))
	}
	var byKind [numLogKinds][]LogEntry
	for _, e := range ref {
		byKind[e.Kind] = append(byKind[e.Kind], e)
	}
	total := 0
	for k := LogKind(1); k < numLogKinds; k++ {
		want := byKind[k]
		if got := slices.Collect(l.All(k)); !slices.Equal(got, want) {
			t.Fatalf("All(%s) lists %d entries, want %d", k, len(got), len(want))
		}
		first, okFirst := l.First(k)
		last, okLast := l.Last(k)
		if okFirst != (len(want) > 0) || okLast != okFirst {
			t.Fatalf("First/Last(%s) found %v/%v with %d stored", k, okFirst, okLast, len(want))
		}
		if okFirst && (first != want[0] || last != want[len(want)-1]) {
			t.Fatalf("First/Last(%s) = %+v/%+v, want %+v/%+v", k, first, last, want[0], want[len(want)-1])
		}
		if l.Count(k) != counts[k] {
			t.Fatalf("Count(%s) = %d, want %d", k, l.Count(k), counts[k])
		}
		total += counts[k]
	}
	if l.Len() != total {
		t.Fatalf("Len = %d, want %d", l.Len(), total)
	}
}

// FuzzEventLog checks the chunked log against a plain slice over random
// sequences of entries and beats.
func FuzzEventLog(f *testing.F) {
	beat := byte(LogChaosBeat - 1)
	f.Add([]byte{})
	f.Add([]byte{0, 1, beat, 2, 1, 3, beat, 4, 0, 5})
	f.Add([]byte{0xf8, 254, 1, 1, 0xf9, 200, beat, 7, 2, 2})
	f.Add([]byte{0xfa, 255, 0xfb, 255, 3, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		logMachine(t, ops)
	})
}

// TestLogChunks runs the log machine over runs that fill the growing
// chunks exactly, straddle their ends and spill into full-size chunks.
func TestLogChunks(t *testing.T) {
	for _, ops := range [][]byte{
		{0xf8, 0, 0, 1},            // one entry
		{0xf8, 255},                // the growing chunks, to the last entry
		{0xf8, 254, 2, 2, 0xf9, 2}, // and past it
		{0xf8, 255, 0xf9, 255, 0xfa, 255, 0xfb, 1}, // full-size chunks, several kinds
	} {
		logMachine(t, ops)
	}
	if logGrownEntries != 255*logChunkFirst || chunkCap(logChunkGrown-1) != logChunkMax {
		t.Fatalf("the growing chunks hold %d entries, the last %d", logGrownEntries, chunkCap(logChunkGrown-1))
	}
}
