package sim

import (
	"testing"
	"time"
)

func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	k := NewKernel(Config{Seed: 1, LocalLatency: 100 * time.Microsecond, RemoteLatency: time.Millisecond})
	t.Cleanup(k.Shutdown)
	return k
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var woke time.Duration
	k.Spawn(n, "sleeper", NoPID, func(p *Proc) {
		p.Sleep(42 * time.Second)
		woke = p.Now()
	})
	k.Run(time.Hour)
	if woke != 42*time.Second {
		t.Fatalf("woke at %v, want 42s", woke)
	}
}

func TestSendRecvSameNodeLatency(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var got Msg
	var at time.Duration
	rx := k.Spawn(n, "rx", NoPID, func(p *Proc) {
		got = p.Recv()
		at = p.Now()
	})
	k.Spawn(n, "tx", NoPID, func(p *Proc) {
		p.Send(rx, "hello")
	})
	k.Run(time.Hour)
	if got.Payload != "hello" {
		t.Fatalf("payload = %v, want hello", got.Payload)
	}
	if at != 100*time.Microsecond {
		t.Fatalf("delivered at %v, want 100us", at)
	}
}

func TestRemoteLatencyExceedsLocal(t *testing.T) {
	k := newTestKernel(t)
	a, b := k.AddNode("a"), k.AddNode("b")
	var at time.Duration
	rx := k.Spawn(b, "rx", NoPID, func(p *Proc) {
		p.Recv()
		at = p.Now()
	})
	k.Spawn(a, "tx", NoPID, func(p *Proc) { p.Send(rx, 1) })
	k.Run(time.Hour)
	if at != time.Millisecond {
		t.Fatalf("remote delivery at %v, want 1ms", at)
	}
}

func TestRecvTimeout(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var timedOut bool
	var at time.Duration
	k.Spawn(n, "rx", NoPID, func(p *Proc) {
		_, ok := p.RecvTimeout(5 * time.Second)
		timedOut = !ok
		at = p.Now()
	})
	k.Run(time.Hour)
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != 5*time.Second {
		t.Fatalf("timed out at %v, want 5s", at)
	}
}

func TestRecvTimeoutMessageWins(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var ok bool
	rx := k.Spawn(n, "rx", NoPID, func(p *Proc) {
		_, ok = p.RecvTimeout(10 * time.Second)
	})
	k.Spawn(n, "tx", NoPID, func(p *Proc) {
		p.Sleep(time.Second)
		p.Send(rx, "x")
	})
	k.Run(time.Hour)
	if !ok {
		t.Fatal("message should beat the timeout")
	}
}

func TestChildExitDeliveredToParent(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var exited ChildExit
	k.Spawn(n, "parent", NoPID, func(p *Proc) {
		p.SpawnChild(n, "child", func(c *Proc) {
			c.Sleep(time.Second)
			c.Exit(7, "")
		})
		m := p.Recv()
		exited = *m.Payload.(*ChildExit)
	})
	k.Run(time.Hour)
	if exited.Code != 7 || exited.Name != "child" {
		t.Fatalf("child exit = %+v", exited)
	}
}

// TestSpawnUnderExitedParent spawns a child of a process that has already
// exited, next to an orphan whose parent died while it ran: both run and
// exit without a parent to notify, and a live parent still hears of its
// own child's exit.
func TestSpawnUnderExitedParent(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var orphan, late PID
	dead := k.Spawn(n, "dead", NoPID, func(p *Proc) {
		orphan = p.SpawnChild(n, "orphan", func(c *Proc) {
			c.Sleep(2 * time.Second)
			c.Exit(3, "")
		})
	})
	var exited ChildExit
	var heard int
	k.Spawn(n, "live", NoPID, func(p *Proc) {
		p.Sleep(time.Second)
		p.SpawnChild(n, "child", func(c *Proc) { c.Exit(4, "") })
		for {
			if ce, ok := p.Recv().Payload.(*ChildExit); ok {
				exited = *ce
				heard++
			}
		}
	})
	k.Schedule(time.Second, func() {
		if k.Alive(dead) || k.Exit(dead) == nil {
			t.Errorf("the parent is alive at 1s (exit status %v)", k.Exit(dead))
		}
		late = k.Spawn(n, "late", dead, func(c *Proc) { c.Exit(5, "") })
	})
	k.Run(time.Hour)
	for _, c := range []struct {
		pid  PID
		code int
	}{{orphan, 3}, {late, 5}} {
		if st := k.Exit(c.pid); k.Alive(c.pid) || st == nil || st.Code != c.code {
			t.Errorf("%s: exit status %v, want code %d", k.ProcName(c.pid), st, c.code)
		}
	}
	if heard != 1 || exited.Name != "child" || exited.Code != 4 {
		t.Fatalf("the live parent heard %d exits, the last %+v; want one, of child with code 4", heard, exited)
	}
}

func TestKillDeliversChildExitWithReason(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var exited ChildExit
	var detectedAt time.Duration
	var child PID
	k.Spawn(n, "parent", NoPID, func(p *Proc) {
		child = p.SpawnChild(n, "child", func(c *Proc) {
			c.Sleep(time.Hour) // would run forever
		})
		m := p.Recv()
		exited = *m.Payload.(*ChildExit)
		detectedAt = p.Now()
	})
	k.Schedule(10*time.Second, func() { k.Kill(child, "SIGINT") })
	k.Run(time.Hour)
	if exited.Reason != "SIGINT" {
		t.Fatalf("reason = %q, want SIGINT", exited.Reason)
	}
	if detectedAt != 10*time.Second {
		t.Fatalf("crash detected at %v, want immediately at 10s (waitpid)", detectedAt)
	}
}

func TestSuspendedProcessStopsRespondingButStaysAlive(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var replies int
	echo := k.Spawn(n, "echo", NoPID, func(p *Proc) {
		for {
			m := p.Recv()
			p.Send(m.From, "pong")
		}
	})
	k.Spawn(n, "probe", NoPID, func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * time.Second)
			p.Send(echo, "ping")
			if _, ok := p.RecvTimeout(2 * time.Second); ok {
				replies++
			}
		}
	})
	k.Schedule(15*time.Second, func() { k.Suspend(echo) })
	k.Run(time.Hour)
	if replies != 1 {
		t.Fatalf("replies = %d, want 1 (only the probe before suspension)", replies)
	}
	if !k.Alive(echo) {
		t.Fatal("suspended process must remain in the process table")
	}
}

// TestSuspendedProcessRunsOnlyToDie pins the SIGSTOP contract for both
// kinds of process: a suspended body parked in RecvTimeout and a suspended
// handler process handle nothing while messages arrive and the timeout
// expires, and a kill ends each with code 137 and a ChildExit to its
// parent.
func TestSuspendedProcessRunsOnlyToDie(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var bodyGot, bodyTimeouts int
	h := &hangHandler{}
	var body, handler PID
	exits := map[PID]int{}
	k.Spawn(n, "parent", NoPID, func(p *Proc) {
		body = p.SpawnChild(n, "body", func(p *Proc) {
			for {
				if _, ok := p.RecvTimeout(5 * time.Second); ok {
					bodyGot++
				} else {
					bodyTimeouts++
				}
			}
		})
		handler = p.SpawnChildHandler(n, "handler", h)
		for {
			if ce, ok := p.Recv().Payload.(*ChildExit); ok {
				exits[ce.Child] = ce.Code
			}
		}
	})
	k.Schedule(time.Second, func() {
		k.Suspend(body)
		k.Suspend(handler)
	})
	for i := range 3 {
		k.Schedule(time.Duration(2+i)*time.Second, func() {
			k.SendExternal(body, i)
			k.SendExternal(handler, i)
		})
	}
	k.Schedule(30*time.Second, func() {
		for _, pid := range []PID{body, handler} {
			if !k.Alive(pid) || !k.Suspended(pid) {
				t.Errorf("%s: alive %v, suspended %v before the kill; want both",
					k.ProcName(pid), k.Alive(pid), k.Suspended(pid))
			}
			k.Kill(pid, "recovery")
		}
	})
	k.Run(time.Hour)
	if bodyGot != 0 || bodyTimeouts != 0 || len(h.got) != 0 {
		t.Fatalf("suspended processes ran: body got %d messages and %d timeouts, handler got %q",
			bodyGot, bodyTimeouts, h.got)
	}
	for _, pid := range []PID{body, handler} {
		if e := k.Exit(pid); e == nil || e.Code != 137 || exits[pid] != 137 {
			t.Fatalf("%s: exit %+v, parent saw code %d; want 137 both", k.ProcName(pid), e, exits[pid])
		}
	}
}

func TestNodeCrashKillsProcessesAndDropsTraffic(t *testing.T) {
	k := newTestKernel(t)
	a, b := k.AddNode("a"), k.AddNode("b")
	var gotReply bool
	victim := k.Spawn(b, "victim", NoPID, func(p *Proc) {
		for {
			m := p.Recv()
			p.Send(m.From, "alive")
		}
	})
	k.Spawn(a, "prober", NoPID, func(p *Proc) {
		p.Sleep(20 * time.Second)
		p.Send(victim, "ping")
		_, gotReply = p.RecvTimeout(5 * time.Second)
	})
	k.Schedule(10*time.Second, func() { k.CrashNode("b") })
	k.Run(time.Hour)
	if gotReply {
		t.Fatal("got a reply from a process on a crashed node")
	}
	if k.Alive(victim) {
		t.Fatal("victim should have died with its node")
	}
}

func TestRAMDiskSurvivesNodeCrash(t *testing.T) {
	k := newTestKernel(t)
	a := k.AddNode("a")
	a.RAMDisk().Write("ckpt", []byte{1, 2, 3})
	k.CrashNode("a")
	k.RestartNode("a")
	data, err := a.RAMDisk().Read("ckpt")
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if len(data) != 3 || data[0] != 1 {
		t.Fatalf("data = %v", data)
	}
}

func TestPanicInBodyBecomesSegfaultExit(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var exited ChildExit
	k.Spawn(n, "parent", NoPID, func(p *Proc) {
		p.SpawnChild(n, "buggy", func(c *Proc) {
			var s []int
			_ = s[3] // out-of-range: simulated segfault
		})
		exited = *p.Recv().Payload.(*ChildExit)
	})
	k.Run(time.Hour)
	if exited.Code != 139 {
		t.Fatalf("code = %d, want 139", exited.Code)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		k := NewKernel(Config{Seed: seed, LocalLatency: 100 * time.Microsecond, RemoteLatency: time.Millisecond, LatencyJitter: 300 * time.Microsecond})
		defer k.Shutdown()
		a, b := k.AddNode("a"), k.AddNode("b")
		var times []time.Duration
		rx := k.Spawn(b, "rx", NoPID, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Recv()
				times = append(times, p.Now())
			}
		})
		k.Spawn(a, "tx", NoPID, func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(time.Duration(i) * 7 * time.Millisecond)
				p.Send(rx, i)
			}
		})
		k.Run(time.Hour)
		return times
	}
	t1, t2 := trace(99), trace(99)
	if len(t1) != 10 || len(t2) != 10 {
		t.Fatalf("lengths %d, %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
	t3 := trace(100)
	same := true
	for i := range t1 {
		if t1[i] != t3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered schedules (suspicious)")
	}
}

func TestAfterTimerFires(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var tag interface{}
	k.Spawn(n, "p", NoPID, func(p *Proc) {
		p.After(3*time.Second, "beat")
		m := p.Recv()
		tag = m.Payload
	})
	k.Run(time.Hour)
	if tag != "beat" {
		t.Fatalf("tag = %v", tag)
	}
}

func TestAfterTimerCancel(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	fired := false
	k.Spawn(n, "p", NoPID, func(p *Proc) {
		ev := p.After(3*time.Second, "beat")
		ev.Cancel()
		if _, ok := p.RecvTimeout(10 * time.Second); ok {
			fired = true
		}
	})
	k.Run(time.Hour)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestRunLimitStopsSimulation(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	ticks := 0
	k.Spawn(n, "ticker", NoPID, func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	end := k.Run(10*time.Second + time.Millisecond)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if end > 10*time.Second+time.Millisecond {
		t.Fatalf("end = %v beyond limit", end)
	}
}

func TestRunResumesAfterLimit(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	ticks := 0
	k.Spawn(n, "ticker", NoPID, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	k.Run(5 * time.Second)
	if ticks != 5 {
		t.Fatalf("ticks after first window = %d, want 5", ticks)
	}
	k.Run(30 * time.Second)
	if ticks != 20 {
		t.Fatalf("ticks after resume = %d, want 20", ticks)
	}
}

func TestExitStatusRecorded(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	pid := k.Spawn(n, "p", NoPID, func(p *Proc) { p.Exit(3, "done") })
	k.Run(time.Hour)
	st := k.Exit(pid)
	if st == nil || st.Code != 3 || st.Reason != "done" {
		t.Fatalf("exit = %+v", st)
	}
}

func TestAliveAndProcessTable(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	pid := k.Spawn(n, "p", NoPID, func(p *Proc) { p.Sleep(time.Second) })
	if !k.Alive(pid) {
		t.Fatal("spawned process should be alive")
	}
	if got := len(n.Procs()); got != 1 {
		t.Fatalf("process table size = %d", got)
	}
	k.Run(time.Hour)
	if k.Alive(pid) {
		t.Fatal("exited process should be dead")
	}
	if got := len(n.Procs()); got != 0 {
		t.Fatalf("process table size after exit = %d", got)
	}
}

func TestFSCorruptBit(t *testing.T) {
	fs := NewFS()
	fs.Write("f", []byte{0x00})
	if err := fs.CorruptBit("f", 0, 3); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.Read("f")
	if data[0] != 0x08 {
		t.Fatalf("data = %#x, want 0x08", data[0])
	}
	if err := fs.CorruptBit("f", 5, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := fs.CorruptBit("missing", 0, 0); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestKillWhileSuspendedUnblocksParent(t *testing.T) {
	k := newTestKernel(t)
	n := k.AddNode("a")
	var exited ChildExit
	var child PID
	k.Spawn(n, "parent", NoPID, func(p *Proc) {
		child = p.SpawnChild(n, "c", func(c *Proc) { c.Sleep(time.Hour) })
		exited = *p.Recv().Payload.(*ChildExit)
	})
	k.Schedule(time.Second, func() { k.Suspend(child) })
	k.Schedule(2*time.Second, func() { k.Kill(child, "recovery kill") })
	k.Run(time.Hour)
	if exited.Reason != "recovery kill" {
		t.Fatalf("reason = %q", exited.Reason)
	}
}

// TestSpawnOnDownNodeCrashesSpawner: a process that spawns onto a down node
// crashes, and its parent reads the spawn's name and node, quoted, as the
// segmentation fault's reason.
func TestSpawnOnDownNodeCrashesSpawner(t *testing.T) {
	k := newTestKernel(t)
	a, b := k.AddNode("a"), k.AddNode("b")
	k.CrashNode("b")
	var exited ChildExit
	k.Spawn(a, "parent", NoPID, func(p *Proc) {
		p.SpawnChild(a, "launcher", func(c *Proc) { c.SpawnChild(b, `rank "1"`, func(*Proc) {}) })
		exited = *p.Recv().Payload.(*ChildExit)
	})
	k.Run(time.Second)
	const want = `segmentation fault: sim: spawn "rank \"1\"" on down node "b"`
	if exited.Code != 139 || exited.Reason != want {
		t.Fatalf("exit = %d %q, want 139 %q", exited.Code, exited.Reason, want)
	}
}
