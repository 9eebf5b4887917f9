package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"reesift/internal/trace"
)

// kernelTrial runs a small simulation on k and returns what it observed: a
// handler echo and a body pinger on two nodes, exchanging messages with
// jitter through a dropping fault model, a sleeper on a third node that
// crashes and restarts under a watcher, files on a RAM disk and the shared
// store, a timer left pending, and a trace recorder. k must be new or
// Reset.
func kernelTrial(k *Kernel) string {
	var log strings.Builder
	rec := trace.NewRecorder(trace.Options{})
	k.SetSink(rec)
	a, b, c := k.AddNode("a"), k.AddNode("b"), k.AddNode("c")
	echo := k.SpawnHandler(b, "echo", NoPID, &echoHandler{})
	pinger := k.Spawn(a, "pinger", NoPID, func(p *Proc) {
		p.Node().RAMDisk().Write("ckpt", []byte("state"))
		for i := range 20 {
			p.Send(echo, i)
			m, ok := p.RecvTimeout(5 * time.Millisecond)
			fmt.Fprintf(&log, "%v ping %d: %T %v %v %v\n", p.Now(), i, m.Payload, m.Payload, ok, k.Rand().Int63n(100))
		}
		for {
			m := p.Recv()
			fmt.Fprintf(&log, "%v watcher: %T %v\n", p.Now(), m.Payload, m.Payload)
		}
	})
	k.WatchNode("c", pinger)
	k.Spawn(c, "sleeper", NoPID, func(p *Proc) { p.Sleep(time.Hour) })
	k.SharedFS().Write("input", []byte{1, 2, 3})
	k.InstallNetFault(7, &NetFault{Drop: 0.2})
	k.Schedule(20*time.Millisecond, func() { k.CrashNode("c") })
	k.Schedule(30*time.Millisecond, func() { k.RestartNode("c") })
	k.Schedule(time.Hour, func() { log.WriteString("never\n") })
	end := k.Run(100 * time.Millisecond)
	fmt.Fprintf(&log, "end %v fired %d sent %d live %d net %+v digest %s/%d\n",
		end, k.EventsFired(), k.MessagesSent(), k.LiveProcs(), k.NetFaultStats(), rec.Digest(), rec.Total())
	k.Shutdown()
	return log.String()
}

// TestKernelResetMatchesNew runs a simulation on a kernel, shuts it down
// and Resets it. The reset kernel must equal a new one field by field,
// except for the storage Reset keeps, and must then run the same
// simulation to the same observations.
func TestKernelResetMatchesNew(t *testing.T) {
	k := NewKernel(DefaultConfig(3))
	first := kernelTrial(k)
	if !strings.Contains(first, "NodeDown") || k.EventsFired() == 0 || len(k.events) == 0 || len(k.free) == 0 {
		t.Fatalf("the first simulation did not reach the state under test:\n%s", first)
	}

	cfg := DefaultConfig(9)
	fresh, reset := NewKernel(cfg), k.Reset(cfg)
	if reset != k {
		t.Fatal("Reset returned another kernel")
	}
	compareKernels(t, reset, fresh)
	if got, want := kernelTrial(reset), kernelTrial(fresh); got != want {
		t.Fatalf("the reset kernel ran\n%s\na new one ran\n%s", got, want)
	}
}

// compareKernels fails unless got, a Reset kernel, agrees with want, a new
// one, on every field. It names each field of Kernel, so a field added
// later fails the test until it is compared here. The kept storage is
// checked for being emptied instead: the event free list, the arrays of
// the process table, ready ring and node list (with the nodes it holds),
// the inbox pool and the fault model's random source, which
// InstallNetFault reseeds before any draw.
func compareKernels(t *testing.T, got, want *Kernel) {
	t.Helper()
	compared := []string{"cfg", "now", "seq", "events", "free", "fired", "stopped", "procs", "nextPID",
		"nodes", "nodeList", "rng", "sharedFS", "netFault", "netRNG", "netStats", "nodeWatchers",
		"ready", "readyHead", "readyLen", "inboxes", "sink", "traceOn", "liveProcs", "msgsSent"}
	if typ := reflect.TypeFor[Kernel](); typ.NumField() != len(compared) {
		t.Fatalf("Kernel has %d fields, compareKernels knows %d: %v", typ.NumField(), len(compared), compared)
	}
	fail := func(field string, g, w any) { t.Errorf("%s = %v, new kernel has %v", field, g, w) }
	for _, f := range []struct {
		name string
		g, w any
	}{
		{"cfg", got.cfg, want.cfg}, {"now", got.now, want.now}, {"seq", got.seq, want.seq},
		{"len(events)", len(got.events), len(want.events)}, {"fired", got.fired, want.fired},
		{"stopped", got.stopped, want.stopped}, {"procs", got.procs, want.procs},
		{"nextPID", got.nextPID, want.nextPID}, {"len(nodes)", len(got.nodes), len(want.nodes)},
		{"len(nodeList)", len(got.nodeList), len(want.nodeList)}, {"sharedFS", got.sharedFS.List(), want.sharedFS.List()},
		{"netFault", got.netFault, want.netFault}, {"netStats", got.netStats, want.netStats},
		{"len(nodeWatchers)", len(got.nodeWatchers), len(want.nodeWatchers)},
		{"readyHead", got.readyHead, want.readyHead}, {"readyLen", got.readyLen, want.readyLen},
		{"sink", got.sink, want.sink}, {"traceOn", got.traceOn, want.traceOn},
		{"liveProcs", got.liveProcs, want.liveProcs}, {"msgsSent", got.msgsSent, want.msgsSent},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			fail(f.name, f.g, f.w)
		}
	}
	for _, e := range got.free {
		if e.k != got || e.index != -1 || e.fn != nil || e.proc != nil || !reflect.ValueOf(e.msg).IsZero() {
			t.Errorf("free event record not recycled: %+v", *e)
		}
	}
	for _, n := range got.nodeList[:cap(got.nodeList)] {
		if n != nil && (len(n.procs) > 0 || len(n.ramDisk.List()) > 0) {
			t.Errorf("kept node %s not emptied: procs %v, RAM disk %v", n.name, n.procs, n.ramDisk.List())
		}
	}
	if slices.ContainsFunc(got.ready, func(p *Proc) bool { return p != nil }) {
		t.Errorf("ready ring holds processes: %v", got.ready)
	}
	for _, in := range got.inboxes {
		if slices.ContainsFunc(in, func(m Msg) bool { return !reflect.ValueOf(m).IsZero() }) {
			t.Errorf("pooled inbox holds messages: %v", in)
		}
	}
	gr, wr := make([]int64, 8), make([]int64, 8)
	for i := range gr {
		gr[i], wr[i] = got.rng.Int63(), want.rng.Int63()
	}
	if !slices.Equal(gr, wr) {
		fail("rng draws", gr, wr)
	}
	got.rng.Seed(got.cfg.Seed)
	want.rng.Seed(want.cfg.Seed)
}
