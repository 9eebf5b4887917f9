package trace

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestKindRoundTrip(t *testing.T) {
	for k := KindNone; k <= KindBreach; k++ {
		if got := KindFromString(k.String()); got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if KindFromString("no-such-kind") != KindNone {
		t.Error("unknown kind name should map to KindNone")
	}
}

func TestRecorderRingAndTotal(t *testing.T) {
	r := NewRecorder(Options{Buffer: 4})
	for i := 0; i < 10; i++ {
		r.Emit(Record{At: time.Duration(i), Kind: KindProcSpawn, PID: int64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("len(Records) = %d, want 4 (ring capacity)", len(recs))
	}
	// Oldest-first tail: PIDs 6..9.
	for i, rec := range recs {
		if rec.PID != int64(6+i) {
			t.Fatalf("Records[%d].PID = %d, want %d", i, rec.PID, 6+i)
		}
	}
}

func TestDigestIsDeterministicAndOrderSensitive(t *testing.T) {
	emit := func(order []int64) string {
		r := NewRecorder(Options{Buffer: 2})
		for _, pid := range order {
			r.Emit(Record{Kind: KindMsgSend, PID: pid})
		}
		return r.Digest()
	}
	if emit([]int64{1, 2, 3}) != emit([]int64{1, 2, 3}) {
		t.Fatal("same stream produced different digests")
	}
	if emit([]int64{1, 2, 3}) == emit([]int64{1, 3, 2}) {
		t.Fatal("reordered stream produced the same digest")
	}
	// The digest covers dropped records too, not just the ring tail.
	if emit([]int64{9, 1, 2}) == emit([]int64{8, 1, 2}) {
		t.Fatal("digest ignores records the ring has dropped")
	}
}

func TestMetricsSample(t *testing.T) {
	var m Metrics
	v := int64(7)
	m.Register("events-fired", func() int64 { return v })
	m.Register("queue-depth", func() int64 { return 2 * v })
	r := NewRecorder(Options{})
	m.Sample(time.Second, r)
	v = 9
	m.Sample(2*time.Second, r)
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("len(records) = %d, want 4", len(recs))
	}
	if recs[0].Op != "events-fired" || recs[0].A != 7 {
		t.Fatalf("first sample = %+v", recs[0])
	}
	if recs[3].Op != "queue-depth" || recs[3].A != 18 || recs[3].At != 2*time.Second {
		t.Fatalf("last sample = %+v", recs[3])
	}
	// Sampling into a nil recorder is a no-op, not a panic.
	m.Sample(time.Second, nil)
}

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := &Bundle{
		Scenario:     "split-brain",
		Campaign:     "split-brain",
		Cell:         "partition/one-sided (no epochs)",
		Run:          3,
		Seed:         -1234567,
		BaseSeed:     2,
		Model:        "partition",
		Target:       "FTM",
		Nodes:        []string{"node-a1", "node-b2"},
		Breach:       "application did not complete",
		Verdict:      Verdict{SystemFailure: true, SysMode: "application did not complete", Injections: 12, SimTime: 76 * time.Second, EventsFired: 991},
		TraceDigest:  "fnv1a:00000000deadbeef",
		TraceTotal:   4242,
		Buffer:       4096,
		MetricsEvery: 5 * time.Second,
		Meta:         []byte(`{"Runs":6}`),
		Records: []Record{
			{At: time.Second, Kind: KindNodeDown, Node: "node-b2"},
			{At: 2 * time.Second, Kind: KindDetect, Op: "FTM", Detail: "heartbeat timeout", A: 1},
		},
	}
	path, err := WriteBundle(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("bundle written outside dir: %s", path)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != b.Scenario || got.Cell != b.Cell || got.Run != b.Run ||
		got.Seed != b.Seed || got.TraceDigest != b.TraceDigest || got.Breach != b.Breach ||
		got.Buffer != b.Buffer || got.MetricsEvery != b.MetricsEvery {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got, b)
	}
	if !reflect.DeepEqual(got.Verdict, b.Verdict) {
		t.Fatalf("verdict mismatch: got %+v want %+v", got.Verdict, b.Verdict)
	}
	if len(got.Records) != 2 || got.Records[0].Kind != KindNodeDown ||
		got.Records[1].Detail != "heartbeat timeout" {
		t.Fatalf("records mismatch: %+v", got.Records)
	}
	// Re-writing the same bundle lands on the same deterministic path.
	path2, err := WriteBundle(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if path2 != path {
		t.Fatalf("bundle filename not deterministic: %s vs %s", path, path2)
	}
}

func TestEmitAllocFree(t *testing.T) {
	r := NewRecorder(Options{Buffer: 64})
	rec := Record{At: time.Second, Kind: KindMsgSend, Op: "x", Node: "n", PID: 1, A: 2}
	allocs := testing.AllocsPerRun(1000, func() { r.Emit(rec) })
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f per call, want 0", allocs)
	}
}
