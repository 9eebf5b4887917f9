package sift

import (
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// newTestEnv boots a 4-node SIFT environment and runs the kernel until the
// environment reports initialized.
func newTestEnv(t *testing.T, seed int64) (*sim.Kernel, *Environment) {
	t.Helper()
	k := sim.NewKernel(sim.DefaultConfig(seed))
	t.Cleanup(k.Shutdown)
	env := New(k, DefaultEnvConfig())
	env.Setup()
	return k, env
}

// testAppSpec builds a synthetic two-rank application: rank 0 launches
// rank 1, both tick progress indicators every piPeriod for the given
// number of ticks, exchange a liveness token each tick (the MPI coupling),
// and exit normally.
func testAppSpec(id AppID, ticks int, piPeriod time.Duration) *AppSpec {
	spec := &AppSpec{
		ID:       id,
		Name:     "synthetic",
		Ranks:    2,
		Nodes:    []string{"node-a1", "node-a2"},
		PIPeriod: piPeriod,
	}
	spec.Launcher = func(ac *AppContext) {
		if ac.Rank == 0 {
			pid := ac.SpawnRank(spec.Nodes[1], 1)
			ac.SendPIDs(map[int]sim.PID{1: pid})
		} else {
			if !ac.WaitChannelOpen(30 * time.Second) {
				ac.Proc.Exit(3, "channel open timeout")
			}
		}
		ac.PICreate(piPeriod)
		for i := 1; i <= ticks; i++ {
			ac.Proc.Sleep(piPeriod)
			ac.Progress(uint64(i))
		}
		ac.NotifyExiting()
	}
	return spec
}

// runUntilDone drives the kernel until the app completes or the limit
// passes, returning true on completion.
func runUntilDone(k *sim.Kernel, env *Environment, h *AppHandle, limit time.Duration) bool {
	env.AppDoneHook = func(AppID) { k.Stop() }
	k.Run(limit)
	return h.Done
}

func TestEnvironmentInitializes(t *testing.T) {
	k, env := newTestEnv(t, 1)
	k.Run(10 * time.Second)
	if _, ok := env.Log.First(LogSiftInitialized); !ok {
		t.Fatal("SIFT environment did not initialize")
	}
	if env.Log.Count(LogDaemonRegistered) != 4 {
		t.Fatalf("registered %d daemons, want 4", env.Log.Count(LogDaemonRegistered))
	}
	if env.ProcOf(AIDFTM) == sim.NoPID || !k.Alive(env.ProcOf(AIDFTM)) {
		t.Fatal("FTM not running")
	}
	if env.ProcOf(AIDHeartbeat) == sim.NoPID || !k.Alive(env.ProcOf(AIDHeartbeat)) {
		t.Fatal("Heartbeat ARMOR not running")
	}
	// FTM and Heartbeat ARMOR must be on different nodes.
	ftmNode := k.ProcNode(env.ProcOf(AIDFTM))
	hbNode := k.ProcNode(env.ProcOf(AIDHeartbeat))
	if ftmNode == nil || hbNode == nil || ftmNode.Name() == hbNode.Name() {
		t.Fatalf("FTM on %v, Heartbeat on %v: must be separate nodes", ftmNode, hbNode)
	}
}

func TestAppRunsToCompletion(t *testing.T) {
	k, env := newTestEnv(t, 2)
	app := testAppSpec(1, 5, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	if !runUntilDone(k, env, h, 5*time.Minute) {
		t.Fatal("application did not complete")
	}
	if h.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0", h.Restarts)
	}
	perceived, _ := h.PerceivedTime()
	// Actual work: ~10 s of ticks + startup. Perceived should exceed it
	// by the install/uninstall overhead but stay in the same ballpark.
	if perceived < 10*time.Second || perceived > 30*time.Second {
		t.Fatalf("perceived time %v out of range", perceived)
	}
	// Both ranks exited normally.
	if env.Log.Count(LogAppRankExit) != 2 {
		t.Fatalf("rank exits = %d, want 2", env.Log.Count(LogAppRankExit))
	}
}

func TestPerceivedExceedsActual(t *testing.T) {
	k, env := newTestEnv(t, 3)
	app := testAppSpec(1, 5, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	if !runUntilDone(k, env, h, 5*time.Minute) {
		t.Fatal("application did not complete")
	}
	started, ok := env.Log.First(LogAppStarted)
	if !ok {
		t.Fatal("no app-started record")
	}
	ended, _ := env.Log.Last(LogAppRankExit)
	actual := ended.At - started.At
	perceived, _ := h.PerceivedTime()
	if perceived <= actual {
		t.Fatalf("perceived (%v) must exceed actual (%v): setup/teardown overhead", perceived, actual)
	}
	overhead := perceived - actual
	if overhead > 5*time.Second {
		t.Fatalf("setup/teardown overhead %v implausibly large", overhead)
	}
}

func TestAppCrashIsDetectedAndRestarted(t *testing.T) {
	k, env := newTestEnv(t, 4)
	app := testAppSpec(1, 5, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	// Kill rank 0 mid-run (SIGINT model).
	k.Schedule(12*time.Second, func() {
		pid := env.AppProc(1, 0)
		if pid != sim.NoPID {
			k.Kill(pid, "SIGINT")
		}
	})
	if !runUntilDone(k, env, h, 5*time.Minute) {
		t.Fatal("application did not complete after crash")
	}
	if h.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", h.Restarts)
	}
	if len(env.Log.AppDetections) == 0 {
		t.Fatal("no app failure detection recorded")
	}
	d := env.Log.AppDetections[0]
	if d.Hang {
		t.Fatal("crash misclassified as hang")
	}
	// Crash detection via waitpid is nearly immediate.
	if d.At-12*time.Second > time.Second {
		t.Fatalf("crash detected at %v, want within 1s of the 12s kill", d.At)
	}
}

func TestAppHangDetectedViaProgressIndicators(t *testing.T) {
	k, env := newTestEnv(t, 5)
	piPeriod := 2 * time.Second
	app := testAppSpec(1, 10, piPeriod)
	h := env.Submit(app, 5*time.Second)
	hangAt := 12 * time.Second
	k.Schedule(hangAt, func() {
		pid := env.AppProc(1, 0)
		if pid != sim.NoPID {
			k.Suspend(pid)
		}
	})
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete after hang")
	}
	if h.Restarts < 1 {
		t.Fatal("hang did not cause a restart")
	}
	var hangDet *AppDetection
	for i := range env.Log.AppDetections {
		if env.Log.AppDetections[i].Hang {
			hangDet = &env.Log.AppDetections[i]
			break
		}
	}
	if hangDet == nil {
		t.Fatal("no hang detection recorded")
	}
	latency := hangDet.At - hangAt
	// Figure 6: detection latency is between one and two checking
	// periods (plus small slack for messaging).
	if latency < piPeriod || latency > 2*piPeriod+time.Second {
		t.Fatalf("hang detection latency %v outside [%v, %v]", latency, piPeriod, 2*piPeriod)
	}
}

func TestFTMCrashRecoveredByHeartbeatARMOR(t *testing.T) {
	k, env := newTestEnv(t, 6)
	app := testAppSpec(1, 8, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	killAt := 12 * time.Second
	k.Schedule(killAt, func() { k.Kill(env.ProcOf(AIDFTM), "SIGINT") })
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete despite FTM recovery")
	}
	// The application must be unaffected: no restarts.
	if h.Restarts != 0 {
		t.Fatalf("FTM failure caused %d app restarts", h.Restarts)
	}
	// FTM recovery recorded with detection within ~2 heartbeat periods.
	var rec *Recovery
	for i := range env.Log.Recoveries {
		if env.Log.Recoveries[i].ID == AIDFTM {
			rec = &env.Log.Recoveries[i]
		}
	}
	if rec == nil {
		t.Fatal("no FTM recovery recorded")
	}
	if k.Alive(env.ProcOf(AIDFTM)) == false {
		t.Fatal("recovered FTM not running")
	}
	// The recovered FTM must have restored state (it still knows its
	// daemons and the app).
	ftm := env.ArmorOf(AIDFTM)
	if !ftm.Restored {
		t.Fatal("FTM did not restore from checkpoint")
	}
}

func TestFTMHangRecovered(t *testing.T) {
	k, env := newTestEnv(t, 7)
	app := testAppSpec(1, 8, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	k.Schedule(12*time.Second, func() { k.Suspend(env.ProcOf(AIDFTM)) })
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete after FTM hang")
	}
	if h.Restarts != 0 {
		t.Fatalf("FTM hang caused %d app restarts", h.Restarts)
	}
}

func TestExecutionArmorCrashRecovered(t *testing.T) {
	k, env := newTestEnv(t, 8)
	app := testAppSpec(1, 8, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	target := AIDExec(1, 0)
	k.Schedule(14*time.Second, func() {
		if pid := env.ProcOf(target); pid != sim.NoPID {
			k.Kill(pid, "SIGINT")
		}
	})
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete after Execution ARMOR crash")
	}
	var rec *Recovery
	for i := range env.Log.Recoveries {
		if env.Log.Recoveries[i].ID == target {
			rec = &env.Log.Recoveries[i]
		}
	}
	if rec == nil {
		t.Fatal("Execution ARMOR recovery not recorded")
	}
	// Crash detected via waitpid: detection-to-restart should be
	// dominated by the install delay (~0.45 s), well under 2 s.
	if got := rec.RestoredAt - rec.DetectedAt; got > 2*time.Second {
		t.Fatalf("recovery time %v too large", got)
	}
}

func TestExecutionArmorHangRecovered(t *testing.T) {
	k, env := newTestEnv(t, 9)
	app := testAppSpec(1, 12, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	target := AIDExec(1, 1)
	hangAt := 14 * time.Second
	k.Schedule(hangAt, func() {
		if pid := env.ProcOf(target); pid != sim.NoPID {
			k.Suspend(pid)
		}
	})
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete after Execution ARMOR hang")
	}
	// Hang detection goes through the daemon's 10 s are-you-alive.
	var det *Detection
	for i := range env.Log.Detections {
		if env.Log.Detections[i].ID == target && env.Log.Detections[i].Hang {
			det = &env.Log.Detections[i]
		}
	}
	if det == nil {
		t.Fatal("Execution ARMOR hang not detected")
	}
	if latency := det.At - hangAt; latency > 25*time.Second {
		t.Fatalf("hang detection latency %v too large", latency)
	}
}

func TestHeartbeatArmorCrashRecoveredByFTM(t *testing.T) {
	k, env := newTestEnv(t, 10)
	app := testAppSpec(1, 8, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	k.Schedule(12*time.Second, func() { k.Kill(env.ProcOf(AIDHeartbeat), "SIGINT") })
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete")
	}
	if h.Restarts != 0 {
		t.Fatal("Heartbeat ARMOR failure must not affect the application")
	}
	var rec *Recovery
	for i := range env.Log.Recoveries {
		if env.Log.Recoveries[i].ID == AIDHeartbeat {
			rec = &env.Log.Recoveries[i]
		}
	}
	if rec == nil {
		t.Fatal("Heartbeat ARMOR recovery not recorded")
	}
}

func TestFTMFailureDuringSetupExtendsPerceivedOnly(t *testing.T) {
	k, env := newTestEnv(t, 11)
	app := testAppSpec(1, 5, 2*time.Second)
	h := env.Submit(app, 5*time.Second)
	// Kill the FTM right as the submission lands: setup phase.
	k.Schedule(5*time.Second+50*time.Millisecond, func() { k.Kill(env.ProcOf(AIDFTM), "SIGINT") })
	if !runUntilDone(k, env, h, 10*time.Minute) {
		t.Fatal("application did not complete after setup-phase FTM failure")
	}
	perceived, _ := h.PerceivedTime()
	// Baseline perceived is ~13-14 s; the FTM detection (<= 2x10 s
	// heartbeat) plus recovery pushes it well past that.
	if perceived < 20*time.Second {
		t.Fatalf("perceived time %v: FTM setup failure should delay submission noticeably", perceived)
	}
}

func TestHeartbeatReceiveOmissionWedgesFTMRecovery(t *testing.T) {
	k, env := newTestEnv(t, 12)
	app := testAppSpec(1, 5, 2*time.Second)
	// Make the Heartbeat ARMOR deaf shortly after startup, well before
	// the submission.
	k.Schedule(8*time.Second, func() {
		if hb := env.ArmorOf(AIDHeartbeat); hb != nil {
			hb.MakeDeaf()
		}
	})
	h := env.Submit(app, 60*time.Second)
	done := runUntilDone(k, env, h, 4*time.Minute)
	// The deaf Heartbeat ARMOR misses FTM heartbeat replies, falsely
	// declares the FTM failed, reinstalls it inert (AwaitRestore), and
	// never sends the restore because it cannot hear the install ack.
	// The system wedges: a system failure per Section 4.2.
	if done {
		t.Fatal("expected a system failure (wedged FTM), but the app completed")
	}
	ftm := env.ArmorOf(AIDFTM)
	if ftm.Restored {
		t.Fatal("FTM should be stuck awaiting restore")
	}
}

func TestNodeFailureMigratesHeartbeatArmor(t *testing.T) {
	k, env := newTestEnv(t, 13)
	hbNode := env.Config().HeartbeatNode
	k.Schedule(15*time.Second, func() { k.CrashNode(hbNode) })
	k.Run(60 * time.Second)
	if _, ok := env.Log.First(LogNodeDeclaredFailed); !ok {
		t.Fatal("FTM did not detect the node failure")
	}
	if _, ok := env.Log.First(LogArmorMigrated); !ok {
		t.Fatal("Heartbeat ARMOR was not migrated")
	}
	newPID := env.ProcOf(AIDHeartbeat)
	if !k.Alive(newPID) {
		t.Fatal("migrated Heartbeat ARMOR not running")
	}
	if k.ProcNode(newPID).Name() == hbNode {
		t.Fatal("Heartbeat ARMOR still on the failed node")
	}
}

func TestFigure10RaceConditionLegacyBehaviour(t *testing.T) {
	// Directly exercise the FTM's legacy registration path: a failure
	// notification for an ARMOR the FTM has no record of aborts, and
	// the daemon's duplicate retransmission is dropped, so the ARMOR is
	// never recovered.
	k := sim.NewKernel(sim.DefaultConfig(14))
	defer k.Shutdown()
	cfg := DefaultEnvConfig()
	cfg.FixRegistrationRace = false
	env := New(k, cfg)
	env.Setup()
	k.Run(5 * time.Second)
	// Simulate a daemon failure notification for an unregistered ARMOR.
	ftmPID := env.ProcOf(AIDFTM)
	daemonAID := env.DaemonAID(cfg.Nodes[2])
	k.Schedule(0, func() {
		envlp := core.Envelope{Src: daemonAID, Dst: AIDFTM, Seq: 9999,
			Event: ArmorFailed{ID: AIDExec(9, 0), Reason: "crash"}.Event()}
		k.SendExternal(ftmPID, envlp)
	})
	k.Run(10 * time.Second)
	if env.Log.Count(LogFailureNotificationAborted) != 1 {
		t.Fatal("legacy race: failure notification for unknown ARMOR should abort")
	}
	if countAID(env.Log, LogArmorRecoveryInitiated, AIDExec(9, 0)) != 0 {
		t.Fatal("unknown ARMOR must not be recovered")
	}
}

func TestInvalidDestinationDetectedAtDaemon(t *testing.T) {
	k, env := newTestEnv(t, 15)
	k.Run(5 * time.Second)
	// An envelope to AID 0 — the node_mgmt default-translation escape —
	// is detected (too late) by the daemon.
	ftmPID := env.ProcOf(AIDFTM)
	_ = ftmPID
	daemonPID := env.daemonPID[env.Config().Nodes[0]]
	k.Schedule(0, func() {
		k.SendExternal(daemonPID, core.Envelope{Src: AIDFTM, Dst: core.InvalidAID})
	})
	k.Run(7 * time.Second)
	if env.Log.Count(LogInvalidDestination) != 1 {
		t.Fatal("invalid destination not detected at the daemon")
	}
}

func TestTwoAppsRunConcurrently(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(16))
	defer k.Shutdown()
	env := New(k, DefaultEnvConfig("n1", "n2", "n3", "n4", "n5", "n6"))
	env.Setup()
	a1 := testAppSpec(1, 5, 2*time.Second)
	a1.Nodes = []string{"n1", "n2"}
	a2 := testAppSpec(2, 7, 2*time.Second)
	a2.Nodes = []string{"n3", "n4"}
	h1 := env.Submit(a1, 5*time.Second)
	h2 := env.Submit(a2, 5*time.Second)
	remaining := 2
	env.AppDoneHook = func(AppID) {
		remaining--
		if remaining == 0 {
			k.Stop()
		}
	}
	k.Run(5 * time.Minute)
	if !h1.Done || !h2.Done {
		t.Fatalf("apps done: %v %v", h1.Done, h2.Done)
	}
	if h1.Restarts != 0 || h2.Restarts != 0 {
		t.Fatal("unexpected restarts")
	}
}
