package sift

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// snapshotCase is one checkpointed element in a populated state, with an
// empty twin to restore into. Flags that Restore drops on purpose (the
// Execution ARMOR's child link, the Heartbeat ARMOR's in-flight poll) are
// left false so Restore(Snapshot()) is an exact round trip.
type snapshotCase struct {
	el, fresh core.Element
}

func snapshotCases() []snapshotCase {
	f, g := newBareFTM(), newBareFTM()
	f.NodeMgmt.Nodes = []nodeRec{
		{Hostname: "node-a1", DaemonAID: 10, Alive: true, Epoch: 1},
		{Hostname: "node-a2", DaemonAID: 11, AwaitingReply: true, Missed: 2, Epoch: 3},
	}
	f.ArmorInfo.Recs = []armorRec{
		{ID: AIDHeartbeat, Kind: int64(KindHeartbeat), Node: "node-a2", Status: statusUp, Epoch: 2},
		{ID: AIDExec(1, 0), Kind: int64(KindExecution), Node: "node-b1", Status: statusInstalling},
	}
	f.ExecInfo.Recs = []execRec{
		{ArmorID: AIDExec(1, 0), App: 1, Rank: 0, Node: "node-b1", AppStatus: 2},
		{ArmorID: AIDExec(1, 1), App: 1, Rank: 1, Node: "node-b2", AppStatus: 1},
	}
	f.AppParam.Recs = []appRec{
		{App: 1, Name: "rover", Ranks: 2, Restarts: 3, Nodes: []string{"node-b1", "node-b2"}},
		{App: 2, Name: "otis", Ranks: 1},
	}
	f.AppDetect.Recs = []detectRec{
		{App: 1, Ranks: 2, Completed: 1, Recovering: true, KillsLeft: 2},
		{App: 2, Ranks: 1, Completed: 1, Done: true},
	}
	app := &AppSpec{ID: 7, Name: "rover", Ranks: 2}
	return []snapshotCase{
		{f.NodeMgmt, g.NodeMgmt},
		{f.ArmorInfo, g.ArmorInfo},
		{f.ExecInfo, g.ExecInfo},
		{f.AppParam, g.AppParam},
		{f.AppDetect, g.AppDetect},
		{
			&HeartbeatElem{FTMNode: "node-a1", FTMDaemon: 10, Period: 10 * time.Second, Recoveries: 2, FTMEpoch: 4},
			&HeartbeatElem{},
		},
		{
			&ExecElem{App: app, Rank: 1, AppPID: 42, Launched: 2, ExpectKill: true, PICreated: true,
				PIPeriod: 20 * time.Second, Counter: 300, PrevCounter: 299},
			&ExecElem{App: app, Rank: 1},
		},
	}
}

// readSnapshotGolden loads testdata/snapshots.golden: one "name hex" line
// per element, written by the encoding as it was before Snapshot moved onto
// a scratch Encoder.
func readSnapshotGolden(t *testing.T) map[string][]byte {
	t.Helper()
	file, err := os.Open("testdata/snapshots.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		golden[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestSnapshotGoldenBytes pins every element's encoding to the bytes the
// per-call Encoder produced, on the first and on a repeated Snapshot, and
// checks the restored twin re-encodes to the same bytes.
func TestSnapshotGoldenBytes(t *testing.T) {
	golden := readSnapshotGolden(t)
	for _, c := range snapshotCases() {
		name := c.el.Name()
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden bytes", name)
			continue
		}
		if got := c.el.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot\n got %x\nwant %x", name, got, want)
		}
		if got := c.el.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("%s: second snapshot differs: %x", name, got)
		}
		if err := c.fresh.Restore(want); err != nil {
			t.Errorf("%s: restore: %v", name, err)
			continue
		}
		if got := c.fresh.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("%s: restored twin re-encodes to %x", name, got)
		}
	}
}

// TestSnapshotScratchNeverAliasesCheckpoint is the mutate-after-snapshot
// contract: a Snapshot result is the element's scratch buffer, and neither
// a checkpoint region nor the stable image may share memory with it or with
// each other.
func TestSnapshotScratchNeverAliasesCheckpoint(t *testing.T) {
	for _, c := range snapshotCases() {
		name := c.el.Name()
		store := sim.NewFS()
		ck := core.NewCheckpoint(store, "ckpt/alias")
		snap := c.el.Snapshot()
		want := bytes.Clone(snap)
		ck.Update(name, snap)
		ck.Commit()
		view, err := store.Read("ckpt/alias")
		if err != nil {
			t.Fatal(err)
		}
		// Read returns the stored bytes themselves; keep a copy to compare
		// against.
		stable := bytes.Clone(view)

		// Scribble over the scratch buffer: the region keeps its bytes.
		for i := range snap {
			snap[i] ^= 0xFF
		}
		if !bytes.Equal(ck.Region(name), want) {
			t.Errorf("%s: checkpoint region aliases the element's scratch buffer", name)
		}
		// Scribble over the region: the committed image must not change,
		// because stable storage holds its own copy of every region.
		region := ck.Region(name)
		for i := range region {
			region[i] ^= 0xFF
		}
		again, _ := store.Read("ckpt/alias")
		if !bytes.Equal(again, stable) {
			t.Errorf("%s: stable image aliases the checkpoint region", name)
		}
		// The next Snapshot rewrites the scratch buffer in full.
		if got := c.el.Snapshot(); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot after scribbling = %x", name, got)
		}
	}
}
