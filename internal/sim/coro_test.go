package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// lifecycleScenario runs one kernel through every way a process can end
// — normal exit, Crash, a panic, Kill, Hang then Kill, a node crash, and
// Shutdown of processes still parked, suspended or hung — and returns a
// log of what the parent saw. Sleep lengths and latencies come from the
// seed. coros, when non-nil, receives the coroutine each process started
// on.
func lifecycleScenario(seed int64, coros map[*coro]bool) string {
	k := NewKernel(Config{Seed: seed, LocalLatency: 100 * time.Microsecond,
		RemoteLatency: time.Millisecond, LatencyJitter: 50 * time.Microsecond})
	a, b := k.AddNode("a"), k.AddNode("b")
	var log strings.Builder
	spawn := func(p *Proc, n *Node, name string, fn func(*Proc)) PID {
		pid := p.SpawnChild(n, name, fn)
		if coros != nil {
			coros[k.proc(pid).co] = true
		}
		return pid
	}
	nap := func(p *Proc) { p.Sleep(time.Duration(1+k.Rand().Intn(900)) * time.Microsecond) }
	k.Spawn(a, "parent", NoPID, func(p *Proc) {
		echo := spawn(p, b, "echo", func(p *Proc) {
			for {
				m := p.Recv()
				p.Send(m.From, m.Payload)
			}
		})
		spawn(p, a, "pinger", func(p *Proc) {
			for i := 0; ; i++ {
				p.Send(echo, i)
				p.Recv()
				nap(p)
			}
		})
		spawn(p, a, "exiter", func(p *Proc) { nap(p) })
		spawn(p, a, "crasher", func(p *Proc) { nap(p); p.Crash("assertion") })
		spawn(p, a, "panicker", func(p *Proc) { nap(p); panic("boom") })
		victim := spawn(p, a, "victim", func(p *Proc) { p.Recv() })
		hanger := spawn(p, a, "hanger", func(p *Proc) { nap(p); p.Hang() })
		spawn(p, b, "sleeper", func(p *Proc) {
			for {
				nap(p)
			}
		})
		stopped := spawn(p, a, "stopped", func(p *Proc) {
			for {
				p.Recv()
			}
		})
		spawn(p, a, "lingerer", func(p *Proc) { p.Recv() })
		k.Schedule(2*time.Millisecond, func() { k.Suspend(stopped) })
		k.Schedule(3*time.Millisecond, func() { k.Kill(victim, "sigint") })
		k.Schedule(4*time.Millisecond, func() { k.Kill(hanger, "recovery") })
		k.Schedule(5*time.Millisecond, func() { k.CrashNode("b") })
		for {
			m := p.Recv()
			if ce, ok := m.Payload.(*ChildExit); ok {
				fmt.Fprintf(&log, "%v %s %d %s\n", p.Now(), ce.Name, ce.Code, ce.Reason)
			}
		}
	})
	k.Run(8 * time.Millisecond)
	fmt.Fprintf(&log, "live %d fired %d\n", k.LiveProcs(), k.EventsFired())
	k.Shutdown()
	fmt.Fprintf(&log, "after shutdown live %d", k.LiveProcs())
	return log.String()
}

// pooled reports whether c is on the free list.
func pooled(c *coro) bool {
	coroPool.Lock()
	defer coroPool.Unlock()
	for _, f := range coroPool.free {
		if f == c {
			return true
		}
	}
	return false
}

func TestLifecycleScenarioEndsEveryProcess(t *testing.T) {
	got := lifecycleScenario(1, nil)
	for _, want := range []string{
		"exiter 0 \n", "crasher 134 assertion", "panicker 139 segmentation fault: boom",
		"victim 137 sigint", "hanger 137 recovery", "echo 137 node b failure",
		"sleeper 137 node b failure", "live 4 ", "after shutdown live 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("log lacks %q:\n%s", want, got)
		}
	}
}

// TestCoroPoolReuseAcrossGoroutines runs kernels on two goroutines at once
// over the shared coroutine pool, so coroutines one goroutine releases are
// resumed by the other. Every kernel must match its single-goroutine run.
func TestCoroPoolReuseAcrossGoroutines(t *testing.T) {
	const kernels = 50
	want := make([]string, kernels)
	for i := range want {
		want[i] = lifecycleScenario(int64(i), nil)
	}
	used := [2]map[*coro]bool{{}, {}}
	errs := make([][]string, 2)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range kernels {
				if got := lifecycleScenario(int64(i), used[g]); got != want[i] {
					errs[g] = append(errs[g], fmt.Sprintf("goroutine %d kernel %d:\n%s\nwant:\n%s", g, i, got, want[i]))
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		for _, msg := range e {
			t.Error(msg)
		}
	}
	shared := 0
	for c := range used[0] {
		if used[1][c] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no coroutine ran processes for both goroutines")
	}
}

// TestShutdownLeaksNoGoroutines is the teardown check: once the pool is
// warm, Run+Shutdown trials leave the goroutine count flat.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	for i := range 5 {
		lifecycleScenario(int64(i), nil)
	}
	before := runtime.NumGoroutine()
	for i := range 100 {
		lifecycleScenario(int64(i), nil)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over 100 trials", before, after)
	}
}

// TestAbandonedKernelDoesNotDisturbLaterKernels leaves a kernel mid-run
// without Shutdown. Its parked processes keep their coroutines, which must
// stay out of the pool while later kernels run: those kernels match their
// earlier runs, and the left kernel's processes still finish when it is
// run again.
func TestAbandonedKernelDoesNotDisturbLaterKernels(t *testing.T) {
	const kernels = 10
	want := make([]string, kernels)
	for i := range want {
		want[i] = lifecycleScenario(int64(i), nil)
	}
	k := NewKernel(Config{Seed: 1})
	n := k.AddNode("a")
	var parked []PID
	for range 4 {
		parked = append(parked, k.Spawn(n, "parked", NoPID, func(p *Proc) { p.Recv() }))
	}
	k.Run(time.Millisecond)
	if k.LiveProcs() != 4 {
		t.Fatalf("left kernel has %d live processes, want 4", k.LiveProcs())
	}
	for i := range kernels {
		if got := lifecycleScenario(int64(i), nil); got != want[i] {
			t.Fatalf("kernel %d after a kernel was left mid-run:\n%s\nwant:\n%s", i, got, want[i])
		}
	}
	for _, pid := range parked {
		if pooled(k.proc(pid).co) {
			t.Fatal("a coroutine of the left kernel was pooled")
		}
		k.SendExternal(pid, "wake")
	}
	k.Run(time.Second)
	for _, pid := range parked {
		if e := k.Exit(pid); e == nil || e.Code != 0 {
			t.Fatalf("process %d of the left kernel: exit %+v, want code 0", pid, e)
		}
	}
}

// TestGoexitInBodyUnwindsRun checks that runtime.Goexit in a process body
// (as t.FailNow calls it) ends the goroutine running Kernel.Run instead of
// leaving it blocked, and that the dead coroutine is not pooled.
func TestGoexitInBodyUnwindsRun(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var c *coro
	k.Spawn(k.AddNode("a"), "goexit", NoPID, func(p *Proc) {
		c = p.co
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	done := make(chan bool)
	go func() {
		returned := false
		defer func() { done <- returned }()
		k.Run(time.Second)
		returned = true
	}()
	select {
	case returned := <-done:
		if returned {
			t.Fatal("Run returned normally after Goexit in a process body")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after Goexit in a process body")
	}
	if c == nil {
		t.Fatal("process body never ran")
	}
	if pooled(c) {
		t.Fatal("coroutine that ended in Goexit was returned to the pool")
	}
}

// TestSpawnReapAllocs pins what one process costs on a warm pool: spawn,
// run to exit, reap. The Proc is the one object; the coroutine comes from
// the pool and the inbox ring from the kernel's.
//
// Not parallel: AllocsPerRun counts every allocation in the process.
func TestSpawnReapAllocs(t *testing.T) {
	const maxAllocs = 1
	k := NewKernel(Config{Seed: 1})
	n := k.AddNode("a")
	body := func(p *Proc) {}
	spawnReap := func() {
		pid := k.Spawn(n, "brief", NoPID, body)
		k.Run(time.Second)
		if k.Alive(pid) {
			t.Fatal("process still alive after Run")
		}
	}
	for range 100 {
		spawnReap() // warm the pool, the process table and the node map
	}
	allocs := testing.AllocsPerRun(100, spawnReap)
	t.Logf("%.0f allocations per spawn/reap", allocs)
	if allocs > maxAllocs {
		t.Fatalf("spawn/reap allocates %.0f objects, want ≤ %d", allocs, maxAllocs)
	}
}

// TestKillReapAllocs pins what a process death costs when the parent hears
// of it: a child killed by Kill, the children of a crashed node, and a
// child that spawns onto a down node. Each child's parent receives its
// ChildExit, a pointer to the dead child's own record, and a kill unwinds
// with the child's own exit record, so a death costs its Proc and nothing
// more. A down-node spawn may cost one more object: the reason it
// formats.
//
// Not parallel: AllocsPerRun counts every allocation in the process.
func TestKillReapAllocs(t *testing.T) {
	const crashed = 4 // children per node crash
	k := NewKernel(Config{Seed: 1})
	home, away := k.AddNode("home"), k.AddNode("away")
	heard, code := 0, 0
	parent := k.Spawn(home, "parent", NoPID, func(p *Proc) {
		for {
			if ce, ok := p.Recv().Payload.(*ChildExit); ok {
				heard++
				code = ce.Code
			}
		}
	})
	idle := func(p *Proc) { p.Recv() }
	spawnDown := func(p *Proc) { p.SpawnChild(away, "lost", idle) }
	step := func() { k.Run(k.Now() + time.Millisecond) }
	step()
	for _, c := range []struct {
		name      string
		procs     int // processes that die per round
		maxAllocs float64
		round     func()
	}{
		{"Kill", 1, 1, func() {
			pid := k.Spawn(home, "victim", parent, idle)
			step()
			k.Kill(pid, "SIGINT")
			step()
		}},
		{"CrashNode", crashed, crashed, func() {
			for range crashed {
				k.Spawn(away, "victim", parent, idle)
			}
			step()
			k.CrashNode("away")
			step()
			k.RestartNode("away")
		}},
		{"down-node spawn", 1, 2, func() {
			k.CrashNode("away")
			k.Spawn(home, "spawner", parent, spawnDown)
			step()
			k.RestartNode("away")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for range 20 {
				c.round() // warm the pools, the process table and the node maps
			}
			heard, code = 0, 0
			allocs := testing.AllocsPerRun(50, c.round)
			t.Logf("%.2f allocations per round, %d deaths", allocs, c.procs)
			if want := 51 * c.procs; heard != want || code == 0 {
				t.Fatalf("parent heard %d exits (last code %d), want %d abnormal", heard, code, want)
			}
			if allocs > c.maxAllocs {
				t.Fatalf("a round allocates %.2f objects for %d deaths, want ≤ %.0f", allocs, c.procs, c.maxAllocs)
			}
		})
	}
}
