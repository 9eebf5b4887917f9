package sim

import (
	"testing"
	"time"

	"reesift/internal/trace"
)

func TestRestartNodeAllowsRespawn(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	pid := k.Spawn(n, "p", NoPID, func(p *Proc) { p.Sleep(time.Hour) })
	k.Schedule(time.Second, func() { k.CrashNode("a") })
	k.Run(2 * time.Second)
	if n.Up() || k.Alive(pid) {
		t.Fatal("node or process survived the crash")
	}
	k.RestartNode("a")
	if !n.Up() {
		t.Fatal("node did not restart")
	}
	ran := false
	k.Spawn(n, "p2", NoPID, func(p *Proc) { ran = true })
	k.Run(3 * time.Second)
	if !ran {
		t.Fatal("process did not run on the restarted node")
	}
}

func TestWatchNodeDeliversDownAndUp(t *testing.T) {
	k := newTestKernel(t)
	k.AddNode("a")
	w := k.AddNode("watchtower")
	var got []string
	pid := k.Spawn(w, "watcher", NoPID, func(p *Proc) {
		for {
			m := p.Recv()
			switch pl := m.Payload.(type) {
			case NodeDown:
				got = append(got, "down:"+pl.Node)
			case NodeUp:
				got = append(got, "up:"+pl.Node)
			}
		}
	})
	k.WatchNode("a", pid)
	k.Schedule(time.Second, func() { k.CrashNode("a") })
	k.Schedule(5*time.Second, func() { k.RestartNode("a") })
	k.Run(10 * time.Second)
	if len(got) != 2 || got[0] != "down:a" || got[1] != "up:a" {
		t.Fatalf("watcher saw %v, want [down:a up:a]", got)
	}
}

func TestCrashNodeIdempotent(t *testing.T) {
	k := newTestKernel(t)
	k.AddNode("a")
	k.CrashNode("a")
	k.CrashNode("a") // no-op
	k.CrashNode("nonexistent")
	k.RestartNode("nonexistent")
}

func TestSendExternalDelivers(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var got interface{}
	pid := k.Spawn(n, "rx", NoPID, func(p *Proc) {
		m := p.Recv()
		got = m.Payload
	})
	k.Schedule(time.Second, func() { k.SendExternal(pid, "uplink") })
	k.Run(time.Minute)
	if got != "uplink" {
		t.Fatalf("got %v", got)
	}
}

func TestSuspendedAccessor(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	pid := k.Spawn(n, "p", NoPID, func(p *Proc) { p.Sleep(time.Hour) })
	k.Schedule(time.Second, func() { k.Suspend(pid) })
	k.Run(2 * time.Second)
	if !k.Suspended(pid) {
		t.Fatal("Suspended() false for a suspended process")
	}
	if !k.Alive(pid) {
		t.Fatal("suspended process must remain alive")
	}
	k.Kill(pid, "recovery")
	k.Run(3 * time.Second)
	if k.Suspended(pid) || k.Alive(pid) {
		t.Fatal("a killed process is still suspended or alive")
	}
}

func TestLiveProcsAndShutdown(t *testing.T) {
	k := NewKernel(DefaultConfig(5))
	n := k.AddNode("a")
	for i := 0; i < 5; i++ {
		k.Spawn(n, "p", NoPID, func(p *Proc) { p.Sleep(time.Hour) })
	}
	k.Run(time.Second)
	if got := k.LiveProcs(); got != 5 {
		t.Fatalf("live = %d, want 5", got)
	}
	k.Shutdown()
	if got := k.LiveProcs(); got != 0 {
		t.Fatalf("live after shutdown = %d", got)
	}
}

func TestHangSelfStopsResponding(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	pid := k.Spawn(n, "p", NoPID, func(p *Proc) {
		p.Sleep(time.Second)
		p.Hang()
	})
	k.Run(10 * time.Second)
	if !k.Alive(pid) {
		t.Fatal("hung process must stay in the process table")
	}
	if !k.Suspended(pid) {
		t.Fatal("Hang() should leave the process suspended")
	}
}

func TestProcNameAndNodeAccessors(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	pid := k.Spawn(n, "myproc", NoPID, func(p *Proc) {})
	if k.ProcName(pid) != "myproc" {
		t.Fatalf("name = %q", k.ProcName(pid))
	}
	if k.ProcNode(pid).Name() != "a" {
		t.Fatalf("node = %v", k.ProcNode(pid))
	}
	if k.ProcName(9999) != "" || k.ProcNode(9999) != nil {
		t.Fatal("unknown PID should yield zero values")
	}
	k.Run(time.Second)
}

func TestTraceSink(t *testing.T) {
	k := newTestKernel(t)
	rec := trace.NewRecorder(trace.Options{})
	k.SetSink(rec)
	if !k.TraceOn() {
		t.Fatal("TraceOn false with a recorder installed")
	}
	n := k.AddNode("a")
	k.Spawn(n, "p", NoPID, func(p *Proc) { p.Exit(0, "") })
	k.Run(time.Second)
	var spawn, exit bool
	for _, r := range rec.Records() {
		spawn = spawn || r.Kind == trace.KindProcSpawn
		exit = exit || r.Kind == trace.KindProcExit
	}
	if !spawn || !exit {
		t.Fatalf("recorder missed the process lifecycle: %+v", rec.Records())
	}
	k.SetSink(nil)
	if k.TraceOn() {
		t.Fatal("TraceOn true after the recorder was removed")
	}
}

func TestEventCancelAndAccessors(t *testing.T) {
	k := newTestKernel(t)
	fired := false
	ev := k.Schedule(time.Second, func() { fired = true })
	if ev.At() != time.Second {
		t.Fatalf("At = %v", ev.At())
	}
	ev.Cancel()
	k.Run(time.Minute)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestNodeProcsSorted(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	for i := 0; i < 4; i++ {
		k.Spawn(n, "p", NoPID, func(p *Proc) { p.Sleep(time.Hour) })
	}
	pids := n.Procs()
	for i := 1; i < len(pids); i++ {
		if pids[i] <= pids[i-1] {
			t.Fatal("process table not sorted")
		}
	}
}
