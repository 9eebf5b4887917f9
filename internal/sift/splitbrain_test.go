package sift

import (
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// partitionOneSided drops every message INTO node for healAfter, then
// heals — the asymmetric-reachability fault the split-brain epoch
// machinery exists for. The node can still send: its recoverer stays
// alive and keeps acting on stale state.
func partitionOneSided(k *sim.Kernel, node string, healAfter time.Duration) {
	k.InstallNetFault(0x5b, &sim.NetFault{
		Drop: 1,
		Match: func(src, dst sim.PID, _ interface{}) bool {
			return k.ProcNode(src).Name() != node && k.ProcNode(dst).Name() == node
		},
	})
	k.Schedule(healAfter, k.ClearNetFault)
}

// splitBrainConfig shapes the detection race so the partition produces a
// genuine split brain: the FTM's fast heartbeat declares the isolated
// node failed and installs a replacement Heartbeat ARMOR while the stale
// incarnation — whose own FTM poll is slow — is still alive; the heal
// lands before the stale side's false recovery walk begins, so the walk
// replays into the healed cluster.
func splitBrainConfig() EnvConfig {
	cfg := DefaultEnvConfig()
	cfg.FTMHeartbeatPeriod = 5 * time.Second
	cfg.HeartbeatArmorPeriod = 20 * time.Second
	cfg.SharedCheckpoints = true
	return cfg
}

// countAID counts the entries of a kind about one ARMOR.
func countAID(l *EventLog, kind LogKind, id core.AID) int {
	n := 0
	for e := range l.All(kind) {
		if e.AID() == id {
			n++
		}
	}
	return n
}

// TestSplitBrainStaleRecovererStandsDown: with incarnation epochs (the
// default), a healed one-sided partition's duplicate Heartbeat ARMOR is
// reconciled — its replayed FTM recovery is refused cluster-wide and the
// superseded incarnation is killed on its own node — instead of falsely
// re-recovering the live FTM in a loop.
func TestSplitBrainStaleRecovererStandsDown(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(21))
	t.Cleanup(k.Shutdown)
	env := New(k, splitBrainConfig())
	env.Setup()
	hbNode := env.Config().HeartbeatNode
	k.Schedule(30*time.Second, func() { partitionOneSided(k, hbNode, 15*time.Second) })
	k.Run(3 * time.Minute)

	if _, ok := env.Log.First(LogNodeDeclaredFailed); !ok {
		t.Fatal("FTM never declared the partitioned node failed")
	}
	if n := countAID(env.Log, LogArmorMigrated, AIDHeartbeat); n == 0 {
		t.Fatal("Heartbeat ARMOR was not migrated off the partitioned node")
	}
	// The stale incarnation's false FTM recovery must be refused, not
	// obeyed: the live FTM is never reinstalled.
	if n := countAID(env.Log, LogInstallRefusedStale, AIDFTM); n == 0 {
		t.Fatal("stale Heartbeat ARMOR's replayed FTM install was never refused")
	}
	if n := countAID(env.Log, LogArmorInstalled, AIDFTM); n != 1 {
		t.Fatalf("FTM installed %d times; the stale recoverer's false recovery went through", n)
	}
	// The superseded incarnation stands down on its own node.
	if n := countAID(env.Log, LogArmorStoodDown, AIDHeartbeat); n != 1 {
		t.Fatalf("stood-down count = %d, want 1 (the stale Heartbeat ARMOR)", n)
	}
	// Exactly one live Heartbeat ARMOR remains, off the partitioned node.
	pid := env.ProcOf(AIDHeartbeat)
	if !k.Alive(pid) {
		t.Fatal("surviving Heartbeat ARMOR is not running")
	}
	if k.ProcNode(pid).Name() == hbNode {
		t.Fatal("surviving Heartbeat ARMOR is the stale incarnation")
	}
}

// TestSplitBrainWithoutEpochsLoops is the ablation regression: with
// epochs disabled, the same partition-then-heal leaves two live
// recoverers, and the stale Heartbeat ARMOR's false FTM recovery is
// obeyed — the pre-epoch duplicate-recoverer hazard this package's
// epoch machinery removed.
func TestSplitBrainWithoutEpochsLoops(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(21))
	t.Cleanup(k.Shutdown)
	cfg := splitBrainConfig()
	cfg.DisableEpochs = true
	env := New(k, cfg)
	env.Setup()
	hbNode := env.Config().HeartbeatNode
	k.Schedule(30*time.Second, func() { partitionOneSided(k, hbNode, 15*time.Second) })
	k.Run(3 * time.Minute)

	if _, ok := env.Log.First(LogNodeDeclaredFailed); !ok {
		t.Fatal("FTM never declared the partitioned node failed")
	}
	// Nothing stands down and nothing is refused: epochs are off.
	if n := env.Log.Count(LogArmorStoodDown); n != 0 {
		t.Fatalf("stood-down count = %d with epochs disabled", n)
	}
	if n := env.Log.Count(LogInstallRefusedStale); n != 0 {
		t.Fatalf("stale-install refusals = %d with epochs disabled", n)
	}
	// The stale Heartbeat ARMOR falsely re-recovers the live FTM: the
	// FTM is reinstalled at least once after the initial deployment.
	if n := countAID(env.Log, LogArmorInstalled, AIDFTM); n < 2 {
		t.Fatalf("FTM installed %d times; expected the stale recoverer's false re-recovery", n)
	}
}
