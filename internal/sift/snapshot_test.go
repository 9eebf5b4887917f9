package sift

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

var updateHeapFields = flag.Bool("update-heapfields", false, "rewrite testdata/heapfields.golden")

// snapshotCase is one checkpointed element in a populated state, with an
// empty twin to restore into. Flags that Restore drops on purpose (the
// Execution ARMOR's child link, the Heartbeat ARMOR's in-flight poll) are
// left false so Restore(Snapshot()) is an exact round trip; dropped
// returns the offsets of their value bytes in a well-formed encoding.
type snapshotCase struct {
	el, fresh core.Element
	dropped   func(enc []byte) []int
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
		{f.NodeMgmt, g.NodeMgmt, nil},
		{f.ArmorInfo, g.ArmorInfo, nil},
		{f.ExecInfo, g.ExecInfo, nil},
		{f.AppParam, g.AppParam, nil},
		{f.AppDetect, g.AppDetect, nil},
		{
			core.Checkpointed(&HeartbeatElem{FTMNode: "node-a1", FTMDaemon: 10, Period: 10 * time.Second, Recoveries: 2, FTMEpoch: 4}),
			core.Checkpointed(&HeartbeatElem{}),
			// FTMNode (5+len bytes), FTMDaemon and Period (9 each), then
			// AwaitingReply and Recovering (tag, value).
			func(enc []byte) []int {
				n := int(binary.LittleEndian.Uint32(enc[1:5]))
				return []int{5 + n + 18 + 1, 5 + n + 18 + 3}
			},
		},
		{
			core.Checkpointed(&ExecElem{App: app, Rank: 1, AppPID: 42, Launched: 2, ExpectKill: true, PICreated: true,
				PIPeriod: 20 * time.Second, Counter: 300, PrevCounter: 299}),
			core.Checkpointed(&ExecElem{App: app, Rank: 1}),
			// App, rank and AppPID (9 bytes each), then Child (tag, value).
			func([]byte) []int { return []int{28} },
		},
	}
}

// readSnapshotGolden loads testdata/snapshots.golden: one "name hex" line
// per element, written by the encoding as it was before Snapshot moved onto
// a scratch Encoder.
func readSnapshotGolden(t testing.TB) map[string][]byte {
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

// TestHeapFieldsGolden pins every populated element's heap-injection
// surface: each field's name and flip width, in HeapFields order. That
// order is the injectors' draw order, so moving one field moves every
// heap-injection campaign. Each field must also address encoded state:
// writing back what Get read leaves the snapshot as it was, and flipping
// the low bit changes it.
func TestHeapFieldsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range snapshotCases() {
		hi, ok := c.el.(core.HeapInjectable)
		if !ok {
			t.Fatalf("%s: not heap-injectable", c.el.Name())
		}
		for _, f := range hi.HeapFields() {
			fmt.Fprintf(&b, "%s %d\n", f.Name, f.Bits)
			want := bytes.Clone(c.el.Snapshot())
			v := f.Get()
			f.Set(v)
			if got := c.el.Snapshot(); !bytes.Equal(got, want) {
				t.Errorf("%s: Set(Get()) changed the snapshot", f.Name)
			}
			f.Set(v ^ 1)
			if got := c.el.Snapshot(); bytes.Equal(got, want) {
				t.Errorf("%s: flipping bit 0 left the snapshot unchanged", f.Name)
			}
			f.Set(v)
		}
	}
	const path = "testdata/heapfields.golden"
	if *updateHeapFields {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("heap fields differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// FuzzRestore feeds arbitrary bytes to one populated element's Restore;
// the first byte picks the element. A rejected input must wrap
// core.ErrCorrupt and leave the element's state as it was. An accepted
// input must re-encode byte for byte, except for the flags Restore drops
// on purpose, which come back false. The corpus starts from
// testdata/snapshots.golden.
func FuzzRestore(f *testing.F) {
	golden := readSnapshotGolden(f)
	for i, c := range snapshotCases() {
		f.Add(append([]byte{byte(i)}, golden[c.el.Name()]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cases := snapshotCases()
		c := cases[int(data[0])%len(cases)]
		in := data[1:]
		before := bytes.Clone(c.el.Snapshot())
		if err := c.el.Restore(in); err != nil {
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("%s: error %v does not wrap core.ErrCorrupt", c.el.Name(), err)
			}
			if got := c.el.Snapshot(); !bytes.Equal(got, before) {
				t.Fatalf("%s: rejected input changed the state\nbefore %x\n after %x", c.el.Name(), before, got)
			}
			return
		}
		want := bytes.Clone(in)
		if c.dropped != nil {
			for _, off := range c.dropped(in) {
				want[off] = 0
			}
		}
		if got := c.el.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("%s: accepted input re-encodes differently\n  in %x\n got %x", c.el.Name(), in, got)
		}
	})
}
