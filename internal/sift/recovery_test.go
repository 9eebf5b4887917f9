package sift

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"reesift/internal/sim"
)

// recoveryEnv builds a 4-node environment with the default placement
// (FTM on node-a1, Heartbeat ARMOR on node-a2).
func recoveryEnv(t *testing.T, seed int64, mut func(*EnvConfig)) (*sim.Kernel, *Environment) {
	t.Helper()
	k := sim.NewKernel(sim.DefaultConfig(seed))
	t.Cleanup(k.Shutdown)
	cfg := DefaultEnvConfig()
	if mut != nil {
		mut(&cfg)
	}
	env := New(k, cfg)
	env.Setup()
	return k, env
}

// TestBootAgentReplaysBootstrap crashes and restarts each cluster node in
// turn and verifies the boot agent reinstalls the daemon with an
// identical DaemonBootstrap: same SCC address, same location cache, and
// the same peer table except for the reinstalled daemon's own (new)
// process address.
func TestBootAgentReplaysBootstrap(t *testing.T) {
	for i, target := range DefaultEnvConfig().Nodes {
		target := target
		t.Run(target, func(t *testing.T) {
			k, env := recoveryEnv(t, int64(100+i), nil)
			k.Run(20 * time.Second) // let initialization settle
			before := env.daemons[target].Bootstrap()
			oldPID := env.daemonPID[target]
			k.Schedule(time.Second, func() { k.CrashNode(target) })
			k.Schedule(6*time.Second, func() { k.RestartNode(target) })
			k.Run(60 * time.Second)

			newPID := env.daemonPID[target]
			if newPID == oldPID || !k.Alive(newPID) {
				t.Fatalf("daemon on %s not reinstalled (old pid %d, new pid %d)", target, oldPID, newPID)
			}
			after := env.daemons[target].Bootstrap()
			if after.SCCPID != before.SCCPID {
				t.Fatalf("SCC PID not replayed: %d vs %d", after.SCCPID, before.SCCPID)
			}
			for aid, host := range before.NodeOf {
				if after.NodeOf[aid] != host {
					t.Errorf("location cache entry %s: %q, want %q", aid, after.NodeOf[aid], host)
				}
			}
			for host, pid := range before.DaemonPIDs {
				want := pid
				if host == target {
					want = newPID
				}
				if after.DaemonPIDs[host] != want {
					t.Errorf("peer table entry %s: pid %d, want %d", host, after.DaemonPIDs[host], want)
				}
			}
			if got := env.Log.Count(LogDaemonReinstalled); got != 1 {
				t.Errorf("daemon-reinstalled count = %d, want 1", got)
			}
			if got := env.Log.Count(LogDaemonRebound); got != 1 {
				t.Errorf("daemon-rebound count = %d, want 1", got)
			}
		})
	}
}

// TestBootAgentDisabled pins the ablation switch: with the recovery
// subsystem off, a restarted node stays daemonless (the original
// testbed's gap).
func TestBootAgentDisabled(t *testing.T) {
	k, env := recoveryEnv(t, 7, func(cfg *EnvConfig) { cfg.DisableBootAgent = true })
	k.Run(20 * time.Second)
	old := env.daemonPID["node-b1"]
	k.Schedule(time.Second, func() { k.CrashNode("node-b1") })
	k.Schedule(6*time.Second, func() { k.RestartNode("node-b1") })
	k.Run(60 * time.Second)
	if env.daemonPID["node-b1"] != old || k.Alive(old) {
		t.Fatal("daemon reinstalled despite DisableBootAgent")
	}
	if got := env.Log.Count(LogDaemonReinstalled); got != 0 {
		t.Fatalf("daemon-reinstalled count = %d, want 0", got)
	}
}

// TestFTMMigrationLandsOnEachSurvivingNode crashes the FTM's node (and
// progressively more of the preferred reinstall sites, without restart)
// and verifies the Heartbeat ARMOR walks its site list until the FTM
// lands on the expected surviving node — including the Heartbeat ARMOR's
// own node as the last resort.
func TestFTMMigrationLandsOnEachSurvivingNode(t *testing.T) {
	cases := []struct {
		crash []string
		want  string
	}{
		{crash: []string{"node-a1"}, want: "node-b1"},
		{crash: []string{"node-a1", "node-b1"}, want: "node-b2"},
		{crash: []string{"node-a1", "node-b1", "node-b2"}, want: "node-a2"},
	}
	for i, c := range cases {
		c := c
		t.Run(c.want, func(t *testing.T) {
			k, env := recoveryEnv(t, int64(200+i), nil)
			k.Schedule(25*time.Second, func() {
				for _, n := range c.crash {
					k.CrashNode(n)
				}
			})
			k.Run(200 * time.Second)
			if node := env.placementNode(AIDFTM); node != c.want {
				t.Fatalf("FTM placed on %q, want %q", node, c.want)
			}
			pid := env.ProcOf(AIDFTM)
			if pid == sim.NoPID || !k.Alive(pid) {
				t.Fatal("migrated FTM not alive")
			}
			if got := env.Log.Count(LogFTMMigrated); got != 1 {
				t.Fatalf("ftm-migrated count = %d, want 1", got)
			}
			if env.Log.Count(LogFTMRestoreSent) == 0 {
				t.Fatal("two-step recovery never sent the restore command")
			}
		})
	}
}

// TestNodeCrashOnApplicationNodeSurvives is the acceptance scenario for
// the recovery subsystem: crash the node hosting application rank 1 (and
// the Heartbeat ARMOR, under the default placement), restart it, and the
// application must still complete — the boot agent reinstalls the
// daemon, the migrated Execution ARMOR restores from the centralized
// checkpoint store (Section 3.4's requirement for node-failure
// tolerance), detects the lost rank, and the FTM's restart relaunches it
// through the fresh daemon.
func TestNodeCrashOnApplicationNodeSurvives(t *testing.T) {
	k, env := recoveryEnv(t, 11, func(cfg *EnvConfig) { cfg.SharedCheckpoints = true })
	app := testAppSpec(1, 4, 20*time.Second)
	h := env.Submit(app, 5*time.Second)
	k.Schedule(25*time.Second, func() { k.CrashNode("node-a2") })
	k.Schedule(55*time.Second, func() { k.RestartNode("node-a2") })
	env.AppDoneHook = func(AppID) { k.Stop() }
	k.Run(400 * time.Second)
	if !h.Done {
		t.Fatalf("application did not complete after an application-node crash; log tail: %v", tailLog(env, 12))
	}
	if h.Restarts == 0 {
		t.Fatal("application completed without a restart — the crash never bit")
	}
	if env.Log.Count(LogDaemonReinstalled) == 0 {
		t.Fatal("boot agent never reinstalled the daemon")
	}
}

// TestSCCReinstallsFTMWhenRecovererIsDeaf pins the last-resort path that
// closes the paper's Section 6 compound failure: the FTM's node crashes
// while the Heartbeat ARMOR is suspended, so the dedicated recoverer
// cannot act; when the node restarts, the SCC's placement-table
// re-registration brings the FTM back itself.
func TestSCCReinstallsFTMWhenRecovererIsDeaf(t *testing.T) {
	k, env := recoveryEnv(t, 13, nil)
	k.Schedule(20*time.Second, func() {
		if pid := env.ProcOf(AIDHeartbeat); pid != sim.NoPID {
			k.Suspend(pid)
		}
	})
	k.Schedule(25*time.Second, func() { k.CrashNode("node-a1") })
	k.Schedule(55*time.Second, func() { k.RestartNode("node-a1") })
	k.Run(120 * time.Second)
	pid := env.ProcOf(AIDFTM)
	if pid == sim.NoPID || !k.Alive(pid) {
		t.Fatalf("FTM not reinstalled by the SCC; log tail: %v", tailLog(env, 12))
	}
	if node := env.placementNode(AIDFTM); node != "node-a1" {
		t.Fatalf("FTM on %q, want node-a1 (SCC reinstall in place)", node)
	}
	if countAID(env.Log, LogArmorReregistered, AIDFTM) == 0 {
		t.Fatal("no armor-reregistered record for the FTM")
	}
}

// tailLog renders the last n log entries for failure diagnostics.
func tailLog(env *Environment, n int) []string {
	entries := slices.Collect(env.Log.Each())
	if len(entries) > n {
		entries = entries[len(entries)-n:]
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, fmt.Sprintf("%.1fs %s %s", e.At.Seconds(), e.Kind, e.Detail()))
	}
	return out
}
