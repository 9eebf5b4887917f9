package sift

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"reesift/internal/core"
)

// newBareFTM builds an FTM element set for pure state tests; the
// environment's kernel is never touched by Snapshot/Restore/Check.
func newBareFTM() *FTM {
	env := New(nil, DefaultEnvConfig())
	return NewFTM(env, FTMConfig{HeartbeatPeriod: 10 * time.Second, FixRegistrationRace: true, HeartbeatNode: "node-a2"})
}

func TestNodeMgmtSnapshotRestoreRoundTrip(t *testing.T) {
	f := newBareFTM()
	e := f.NodeMgmt
	e.Nodes = []nodeRec{
		{Hostname: "node-a1", DaemonAID: 10, Alive: true},
		{Hostname: "node-a2", DaemonAID: 11, Alive: false, AwaitingReply: true, Missed: 2},
	}
	snap := e.Snapshot()
	e2 := newBareFTM().NodeMgmt
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(e2.Nodes) != 2 || e2.Nodes[0].Hostname != "node-a1" || e2.Nodes[1].Missed != 2 {
		t.Fatalf("restored %+v", e2.Nodes)
	}
	if e2.Nodes[1].Alive || !e2.Nodes[1].AwaitingReply {
		t.Fatal("flags lost")
	}
}

func TestNodeMgmtTranslateDefaultsToZero(t *testing.T) {
	f := newBareFTM()
	f.NodeMgmt.Nodes = []nodeRec{{Hostname: "node-a1", DaemonAID: 10, Alive: true}}
	if got := f.NodeMgmt.Translate("node-a1"); got != 10 {
		t.Fatalf("translate = %v", got)
	}
	// The paper's escape: a failed translation returns the default
	// daemon ID of zero, unchecked by the caller.
	if got := f.NodeMgmt.Translate("node-xx"); got != core.InvalidAID {
		t.Fatalf("missing host translated to %v, want 0", got)
	}
}

func TestNodeMgmtCheckCatchesStructuralDamage(t *testing.T) {
	f := newBareFTM()
	e := f.NodeMgmt
	e.Nodes = []nodeRec{{Hostname: "node-a1", DaemonAID: 10, Alive: true}}
	if err := e.Check(); err != nil {
		t.Fatalf("healthy state flagged: %v", err)
	}
	e.Nodes[0].DaemonAID = 0
	if e.Check() == nil {
		t.Fatal("zero daemon AID not caught")
	}
	e.Nodes[0].DaemonAID = 10
	e.Nodes[0].Hostname = ""
	if e.Check() == nil {
		t.Fatal("empty hostname not caught")
	}
	// Content corruption of a plausible hostname is NOT detectable —
	// the blind spot behind the paper's node_mgmt system failures.
	e.Nodes[0].Hostname = "node-zz"
	if err := e.Check(); err != nil {
		t.Fatalf("content corruption should be undetectable: %v", err)
	}
}

func TestNodeMgmtHeapFieldsCoverHostnameAndAID(t *testing.T) {
	f := newBareFTM()
	f.NodeMgmt.Nodes = []nodeRec{{Hostname: "node-a1", DaemonAID: 10, Alive: true}}
	fields := f.NodeMgmt.HeapFields()
	if len(fields) != 2 {
		t.Fatalf("fields = %d", len(fields))
	}
	// Corrupting the hostname through the heap field changes content.
	for _, fl := range fields {
		if strings.Contains(fl.Name, "hostname") {
			fl.Set(fl.Get() ^ 0xFF)
			if f.NodeMgmt.Nodes[0].Hostname == "node-a1" {
				t.Fatal("hostname field Set had no effect")
			}
		}
	}
}

// TestPackUnpackStringProperty drives a string field's heap view: Set
// writes a word over the string's first eight bytes without changing its
// length, and Get reads the written word back.
func TestPackUnpackStringProperty(t *testing.T) {
	e := newBareFTM().NodeMgmt
	f := func(s string, v uint64) bool {
		e.Nodes = []nodeRec{{Hostname: s, DaemonAID: 10}}
		hostname := e.HeapFields()[1]
		hostname.Set(v)
		if len(e.Nodes[0].Hostname) != len(s) {
			return false
		}
		n := min(len(s), 8)
		mask := uint64(0)
		for i := 0; i < n; i++ {
			mask |= 0xFF << (8 * uint(i))
		}
		return hostname.Get()&mask == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMgrArmorInfoSnapshotRestore(t *testing.T) {
	f := newBareFTM()
	e := f.ArmorInfo
	e.recordArmor(2, KindHeartbeat, "node-a2", statusUp)
	e.recordArmor(1100, KindExecution, "node-a1", statusInstalling)
	snap := e.Snapshot()
	e2 := newBareFTM().ArmorInfo
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	r := e2.find(1100)
	if r == nil || r.Node != "node-a1" || r.Status != statusInstalling {
		t.Fatalf("restored %+v", e2.Recs)
	}
}

func TestMgrArmorInfoCheckRanges(t *testing.T) {
	f := newBareFTM()
	e := f.ArmorInfo
	e.recordArmor(2, KindHeartbeat, "node-a2", statusUp)
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	e.Recs[0].Kind = 99
	if e.Check() == nil {
		t.Fatal("kind out of range not caught")
	}
	e.Recs[0].Kind = int64(KindHeartbeat)
	e.Recs[0].Status = 77
	if e.Check() == nil {
		t.Fatal("status out of range not caught")
	}
}

func TestExecArmorInfoSnapshotRestoreAndByApp(t *testing.T) {
	f := newBareFTM()
	e := f.ExecInfo
	e.add(execRec{ArmorID: 1101, App: 1, Rank: 1, Node: "node-a2", AppStatus: 2})
	e.add(execRec{ArmorID: 1100, App: 1, Rank: 0, Node: "node-a1", AppStatus: 2})
	e.add(execRec{ArmorID: 1200, App: 2, Rank: 0, Node: "node-b1", AppStatus: 1})
	byApp := e.byApp(1)
	if len(byApp) != 2 || byApp[0].Rank != 0 || byApp[1].Rank != 1 {
		t.Fatalf("byApp = %+v", byApp)
	}
	snap := e.Snapshot()
	e2 := newBareFTM().ExecInfo
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(e2.Recs) != 3 {
		t.Fatalf("restored %d recs", len(e2.Recs))
	}
	e2.removeApp(1)
	if len(e2.Recs) != 1 || e2.Recs[0].App != 2 {
		t.Fatalf("removeApp left %+v", e2.Recs)
	}
}

func TestAppParamSnapshotRestore(t *testing.T) {
	f := newBareFTM()
	spec := &AppSpec{ID: 1, Name: "rover", Ranks: 2, Nodes: []string{"a", "b"}}
	f.AppParam.add(spec)
	f.AppParam.Recs[0].Restarts = 3
	snap := f.AppParam.Snapshot()
	e2 := newBareFTM().AppParam
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	r := e2.find(1)
	if r == nil || r.Restarts != 3 || len(r.Nodes) != 2 {
		t.Fatalf("restored %+v", e2.Recs)
	}
}

func TestAppParamCheckRejectsNonsense(t *testing.T) {
	f := newBareFTM()
	f.AppParam.Recs = []appRec{{App: 1, Name: "x", Ranks: 0}}
	if f.AppParam.Check() == nil {
		t.Fatal("zero ranks not caught")
	}
	f.AppParam.Recs[0].Ranks = 2
	f.AppParam.Recs[0].Restarts = -1
	if f.AppParam.Check() == nil {
		t.Fatal("negative restarts not caught")
	}
}

func TestMgrAppDetectCrossChecksAppParam(t *testing.T) {
	f := newBareFTM()
	spec := &AppSpec{ID: 1, Name: "rover", Ranks: 2, Nodes: []string{"a"}}
	f.AppParam.add(spec)
	f.AppDetect.add(1, 2)
	if err := f.AppDetect.Check(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the rank count: the cross-element integrity check fires.
	f.AppDetect.Recs[0].Ranks = 6
	if f.AppDetect.Check() == nil {
		t.Fatal("rank-count disagreement with app_param not caught")
	}
}

func TestMgrAppDetectSnapshotRestore(t *testing.T) {
	f := newBareFTM()
	f.AppDetect.add(1, 2)
	f.AppDetect.Recs[0].Completed = 1
	f.AppDetect.Recs[0].Recovering = true
	snap := f.AppDetect.Snapshot()
	e2 := newBareFTM().AppDetect
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if e2.Recs[0].Completed != 1 || !e2.Recs[0].Recovering {
		t.Fatalf("restored %+v", e2.Recs)
	}
}

func TestAllFTMElementsRejectGarbageSnapshots(t *testing.T) {
	f := newBareFTM()
	for _, el := range f.Elements() {
		if err := el.Restore([]byte{0xBA, 0xD0}); err == nil {
			t.Fatalf("element %s accepted garbage", el.Name())
		}
	}
}

func TestHeartbeatElemSnapshotRestore(t *testing.T) {
	e := core.Checkpointed(&HeartbeatElem{FTMNode: "node-a1", FTMDaemon: 10, Period: 10 * time.Second, Recoveries: 2, AwaitingReply: true, Recovering: true})
	snap := e.Snapshot()
	e2 := core.Checkpointed(&HeartbeatElem{})
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if e2.FTMDaemon != 10 || e2.Period != 10*time.Second || e2.Recoveries != 2 {
		t.Fatalf("restored %+v", e2)
	}
	// In-flight poll state must NOT survive a restart: the recovered
	// ARMOR starts a fresh cycle instead of trusting stale flags.
	if e2.AwaitingReply || e2.Recovering {
		t.Fatal("stale in-flight poll state restored")
	}
}

func TestHeartbeatElemCheck(t *testing.T) {
	e := core.Checkpointed(&HeartbeatElem{FTMDaemon: 10, Period: 10 * time.Second})
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	e.Period = -time.Second
	if e.Check() == nil {
		t.Fatal("negative period not caught")
	}
	e.Period = 10 * time.Second
	e.FTMDaemon = 0
	if e.Check() == nil {
		t.Fatal("zero daemon not caught")
	}
}

func TestExecElemSnapshotRestoreDropsChildLink(t *testing.T) {
	app := &AppSpec{ID: 1, Name: "rover", Ranks: 2, Nodes: []string{"a", "b"}}
	e := core.Checkpointed(&ExecElem{App: app, Rank: 0, AppPID: 42, Child: true, Launched: 1, PICreated: true, PIPeriod: 20 * time.Second, Counter: 7})
	snap := e.Snapshot()
	e2 := core.Checkpointed(&ExecElem{App: app, Rank: 0})
	if err := e2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if e2.AppPID != 42 || e2.Counter != 7 || !e2.PICreated {
		t.Fatalf("restored %+v", e2)
	}
	// The recovered process is not the application's parent anymore:
	// waitpid coverage is gone, process-table polling takes over.
	if e2.Child {
		t.Fatal("parent-child link must not survive recovery")
	}
}

func TestExecElemRestoreRejectsWrongBinding(t *testing.T) {
	app := &AppSpec{ID: 1, Name: "rover", Ranks: 2, Nodes: []string{"a"}}
	other := &AppSpec{ID: 9, Name: "other", Ranks: 2, Nodes: []string{"a"}}
	e := core.Checkpointed(&ExecElem{App: app, Rank: 0})
	snap := e.Snapshot()
	e2 := core.Checkpointed(&ExecElem{App: other, Rank: 0})
	err := e2.Restore(snap)
	if err == nil {
		t.Fatal("checkpoint for a different app accepted")
	}
	// The message is a crash reason in the event log: it keeps its wording.
	if want := "app_mon: checkpoint for app 1 rank 0, armor bound to app 9 rank 0: " + core.ErrCorrupt.Error(); err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

func TestAIDAllocationDisjoint(t *testing.T) {
	seen := map[core.AID]string{}
	record := func(aid core.AID, label string) {
		if prev, dup := seen[aid]; dup {
			t.Fatalf("AID %v collides: %s vs %s", aid, prev, label)
		}
		seen[aid] = label
	}
	record(AIDFTM, "ftm")
	record(AIDHeartbeat, "hb")
	record(AIDSCC, "scc")
	for i := 0; i < 8; i++ {
		record(AIDDaemon(i), "daemon")
	}
	for app := AppID(1); app <= 3; app++ {
		for rank := 0; rank < 4; rank++ {
			record(AIDExec(app, rank), "exec")
			record(AIDApp(app, rank), "app")
		}
	}
}
