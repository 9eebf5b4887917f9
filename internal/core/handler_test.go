package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"reesift/internal/memsim"
	"reesift/internal/sim"
)

// textFault is a memory profile whose every text error is hot and fires
// at its next work unit, drawn from w.
func textFault(w memsim.ClassWeights) memsim.Profile {
	return memsim.Profile{Text: w, TextHotFrac: 1, TextActivation: 1}
}

// armorEquivScenario runs one random schedule against a ring of eight
// ARMORs, one per node, each ticking reliable increments to the next over
// a lossy wire, and each meeting a different end: none (and a RestoreCmd),
// Kill, Suspend then Resume, a node crash, a memsim Crash, a memsim Hang
// then Kill, a kill and a reinstall that restores a corrupted checkpoint,
// and a kill and an AwaitRestore reinstall unlocked by a restore command.
// With handlers false every incarnation is spawned with Run; with true,
// with Handler. It returns every send, delivery, install acknowledgment
// and child exit, the kernel's counters, and the exit statuses.
func armorEquivScenario(seed int64, handlers bool) string {
	k := sim.NewKernel(sim.Config{Seed: seed, LocalLatency: 100 * time.Microsecond,
		RemoteLatency: time.Millisecond, LatencyJitter: 50 * time.Microsecond})
	plan := rand.New(rand.NewSource(seed))
	loss := rand.New(rand.NewSource(^seed))
	at := func(max time.Duration) time.Duration { return time.Duration(1 + plan.Int63n(int64(max))) }
	var log strings.Builder
	w := &wire{pids: make(map[AID]sim.PID)}
	w.drop = func(env Envelope) bool {
		dropped := loss.Intn(8) == 0
		fmt.Fprintf(&log, "%v send %d->%d seq %d ack %v %s dropped %v\n",
			k.Now(), env.Src, env.Dst, env.Seq, env.Ack, env.Event.Kind, dropped)
		return dropped
	}
	const subjects, sinkAID = 8, AID(99)
	home := k.AddNode("home")
	w.pids[sinkAID] = k.Spawn(home, "sink", sim.NoPID, func(p *sim.Proc) {
		for {
			m := p.Recv()
			env, ok := m.Payload.(Envelope)
			if !ok || env.Ack {
				continue
			}
			if ack, ok := InstallAckOf(env.Event); ok {
				fmt.Fprintf(&log, "%v sink: %d installed as pid %d\n", p.Now(), ack.ID, ack.PID)
			}
			if env.Seq > 0 {
				p.Send(m.From, Envelope{Src: sinkAID, Dst: env.Src, Ack: true, AckSeq: env.Seq})
			}
		}
	})
	nodes := make([]*sim.Node, subjects)
	armors := make([]*Armor, subjects)
	build := func(i int, extra Config) *Armor {
		el := &counterElem{name: "count", limit: 1 << 20, peer: AID(1 + (i+1)%subjects),
			period: time.Duration(20+plan.Intn(80)) * time.Millisecond}
		name := fmt.Sprintf("armor%d", i)
		el.onInc = func(ctx *Ctx, n int64) {
			fmt.Fprintf(&log, "%v %s inc %d from %d\n", ctx.Now(), name, n, ctx.From)
		}
		cfg := extra
		cfg.ID, cfg.Name, cfg.Elements = AID(1+i), name, []Element{el}
		cfg.SendLower, cfg.RetryInterval, cfg.NotifyInstalled = w.sendLower, 30*time.Millisecond, sinkAID
		return New(cfg)
	}
	var parent sim.PID
	spawn := func(i int, a *Armor) {
		name := a.Config().Name
		if handlers {
			w.pids[a.ID()] = k.SpawnHandler(nodes[i], name, parent, a.Handler())
		} else {
			w.pids[a.ID()] = k.Spawn(nodes[i], name, parent, a.Run)
		}
		armors[i] = a
	}
	parent = k.Spawn(home, "parent", sim.NoPID, func(p *sim.Proc) {
		for i := range subjects {
			nodes[i] = k.AddNode(fmt.Sprintf("n%d", i))
			var cfg Config
			switch i {
			case 4:
				cfg.Mem = memsim.New(k.Rand(), textFault(memsim.ClassWeights{Segfault: 1}))
			case 5:
				cfg.Mem = memsim.New(k.Rand(), textFault(memsim.ClassWeights{Hang: 1}))
			}
			spawn(i, build(i, cfg))
		}
		for {
			if ce, ok := p.Recv().Payload.(*sim.ChildExit); ok {
				fmt.Fprintf(&log, "%v parent: %s exit %d %s\n", p.Now(), ce.Name, ce.Code, ce.Reason)
			}
		}
	})
	k.Run(0) // spawn the ring
	const horizon = time.Second
	pidOf := func(i int) sim.PID { return w.pids[AID(1+i)] }
	for i := range subjects {
		node := fmt.Sprintf("n%d", i)
		t := horizon/8 + at(horizon/2)
		switch i {
		case 0:
			k.Schedule(t, func() { k.SendExternal(pidOf(0), RestoreCmd{}) })
		case 1:
			k.Schedule(t, func() { k.Kill(pidOf(1), "sigint") })
		case 2:
			k.Schedule(t, func() { k.Suspend(pidOf(2)) })
			k.Schedule(t+at(horizon/4), func() { k.Resume(pidOf(2)) })
		case 3:
			k.Schedule(t, func() { k.CrashNode(node) })
		case 4:
			k.Schedule(t, func() { armors[4].Mem().InjectText() })
		case 5:
			k.Schedule(t, func() { armors[5].Mem().InjectText() })
			k.Schedule(t+at(horizon/4), func() { k.Kill(pidOf(5), "recovery") })
		case 6:
			k.Schedule(t, func() { k.Kill(pidOf(6), "reinstall") })
			k.Schedule(t+time.Millisecond, func() {
				disk, path := nodes[6].RAMDisk(), armors[6].Checkpoint().path
				for range 3 {
					if err := disk.CorruptBit(path, plan.Intn(disk.Size(path)), uint(plan.Intn(8))); err != nil {
						panic(err)
					}
				}
				spawn(6, build(6, Config{AutoRestore: true}))
			})
		case 7:
			k.Schedule(t, func() { k.Kill(pidOf(7), "reinstall") })
			k.Schedule(t+time.Millisecond, func() { spawn(7, build(7, Config{AwaitRestore: true})) })
			k.Schedule(t+at(horizon/4), func() {
				env := NewMsg(sinkAID, 8, EventRestore, nil)
				env.Seq = 1
				k.SendExternal(pidOf(7), env)
			})
		}
	}
	k.Run(horizon)
	fmt.Fprintf(&log, "live %d fired %d sent %d\n", k.LiveProcs(), k.EventsFired(), k.MessagesSent())
	for i, a := range armors {
		fmt.Fprintf(&log, "armor%d restored %v\n", i, a.Restored)
	}
	k.Shutdown()
	for i := range subjects {
		e := k.Exit(pidOf(i))
		fmt.Fprintf(&log, "armor%d pid %d exit %d %q at %v\n", i, pidOf(i), e.Code, e.Reason, e.At)
	}
	return log.String()
}

// TestArmorHandlerMatchesRun is the equivalence property of an ARMOR's two
// forms: for random schedules, an ARMOR spawned with Handler and one
// spawned with Run see the same deliveries at the same times, send the
// same envelopes, fire the same kernel events and end with the same exit
// statuses. The one difference between them, a memsim Hang abandoning the
// message in a handler where a body parks in it (see Armor), can only
// show after a Resume of the hung process, which the schedule does not
// send: armor5 is killed instead.
func TestArmorHandlerMatchesRun(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 20
	}
	restoreFailed := false
	for seed := range int64(seeds) {
		body, handler := armorEquivScenario(seed, false), armorEquivScenario(seed, true)
		if body != handler {
			a, b := strings.Split(body, "\n"), strings.Split(handler, "\n")
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("seed %d: first difference at line %d:\nRun:     %s\nHandler: %s", seed, i+1, a[i], b[i])
				}
			}
			t.Fatalf("seed %d: traces differ in length (%d vs %d lines)", seed, len(a), len(b))
		}
		for _, want := range []string{
			"armor0 inc ", "dropped true", "sink: 8 installed",
			"parent: armor1 exit 137 sigint", "parent: armor3 exit 137 node n3 failure",
			"parent: armor4 exit 134 " + ReasonSegfault, "parent: armor5 exit 137 recovery",
			"armor7 restored true",
		} {
			if !strings.Contains(handler, want) {
				t.Fatalf("seed %d: trace lacks %q:\n%s", seed, want, handler)
			}
		}
		restoreFailed = restoreFailed || strings.Contains(handler, "armor6 exit 134 "+ReasonRestoreFail)
	}
	if !restoreFailed {
		t.Fatalf("no seed's corrupted checkpoint failed to restore")
	}
}
