package inject

import (
	"testing"
	"time"

	"reesift/internal/apps/rover"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

func roverTestApp() *sift.AppSpec {
	return rover.Spec(1, []string{"node-a1", "node-a2"}, rover.DefaultParams())
}

// TestSharedDiskInjectorReachesVerdictPaths sweeps seeds through the
// shared-disk model with the rover verifier attached: the campaign must
// actually corrupt the store, and across a modest sweep at least one run
// must leave the "correct" verdict (the model's whole point is reaching
// the classifier's incorrect/missing paths from the storage side).
func TestSharedDiskInjectorReachesVerdictPaths(t *testing.T) {
	p := rover.DefaultParams()
	ref, err := rover.Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	check := func(fs *sim.FS) string { return rover.Verify(fs, 1, ref, p.Tolerance).String() }
	injected, damaged := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		res := Run(Config{
			Seed:         9000 + seed,
			Model:        ModelSharedDisk,
			Target:       TargetApp,
			Apps:         []*sift.AppSpec{roverTestApp()},
			CheckVerdict: check,
		})
		if res.Injected > 0 {
			injected++
			if res.Verdict == "incorrect" || res.Verdict == "missing" {
				damaged++
			}
		}
	}
	if injected == 0 {
		t.Fatal("shared-disk model never injected across 12 seeds")
	}
	if damaged == 0 {
		t.Fatal("no run reached the incorrect/missing verdict paths")
	}
}

// TestPartitionDrivesNodeDeclaredFailed: a one-sided partition of an
// application node must make the FTM declare the (alive) node failed —
// the asymmetric-reachability path the model exists to exercise. The
// test drives the package-internal runner so it can read the
// environment log directly.
func TestPartitionDrivesNodeDeclaredFailed(t *testing.T) {
	declared := false
	for seed := int64(0); seed < 8 && !declared; seed++ {
		cfg := Config{
			Seed: 9100 + seed,
			// Partition rank 1's node (node-a2): the FTM, on node-a1,
			// stops hearing that node's daemon and must declare it
			// failed even though it is alive.
			Model:       ModelPartition,
			Target:      TargetApp,
			Rank:        1,
			Apps:        []*sift.AppSpec{roverTestApp()},
			SubmitAt:    5 * time.Second,
			Window:      60 * time.Second,
			RepeatEvery: 2 * time.Second,
			Timeout:     400 * time.Second,
			NetFaultFor: 30 * time.Second,
		}
		r := NewRunner(cfg)
		handles := r.deploy()
		r.k.Run(cfg.Timeout)
		r.finish(handles)
		if r.res.Injected > 0 && declaredFailed(r.env.Log, "node-a2") {
			declared = true
		}
		r.k.Shutdown()
	}
	if !declared {
		t.Fatal("no partition run drove the FTM's node-declared-failed path")
	}
}

// TestCompoundCoordinatorArmsBothStages runs the default compound pair
// (Heartbeat ARMOR suspended, FTM node crashed 5 s later) and verifies
// both stages insert their errors and the run replays deterministically.
func TestCompoundCoordinatorArmsBothStages(t *testing.T) {
	both := false
	for seed := int64(0); seed < 8; seed++ {
		run := func() Result {
			return Run(Config{
				Seed:   9200 + seed,
				Model:  ModelCompound,
				Target: TargetFTM,
				Apps:   []*sift.AppSpec{roverTestApp()},
			})
		}
		a, b := run(), run()
		if a.Injected != b.Injected || a.SystemFailure != b.SystemFailure ||
			a.DaemonReinstalls != b.DaemonReinstalls || a.Perceived != b.Perceived {
			t.Fatalf("seed %d: compound run not deterministic:\n%+v\nvs\n%+v", seed, a, b)
		}
		if a.Injected >= 2 {
			both = true
		}
	}
	if !both {
		t.Fatal("no seed armed both compound stages")
	}
}

// TestCompoundSurvivableViaRecoverySubsystem: with centralized
// checkpoints, at least one compound run must come back from the
// correlated FTM/Heartbeat loss — the boot agent reinstalls the daemon
// and the SCC's placement table brings the FTM back (the last-resort
// path), so the run is not a system failure.
func TestCompoundSurvivableViaRecoverySubsystem(t *testing.T) {
	env := sift.DefaultEnvConfig()
	env.SharedCheckpoints = true
	survived := false
	for seed := int64(0); seed < 10 && !survived; seed++ {
		res := Run(Config{
			Seed:   9300 + seed,
			Model:  ModelCompound,
			Target: TargetFTM,
			Apps:   []*sift.AppSpec{roverTestApp()},
			Env:    &env,
		})
		if res.Injected >= 2 && res.Done && res.DaemonReinstalls > 0 {
			survived = true
		}
	}
	if !survived {
		t.Fatal("no compound run survived across 10 seeds — the recovery subsystem never closed the Section 6 failure")
	}
}

// TestNodeCrashAgainstApplicationNodeRecovers: the re-pointed node-crash
// model against an application-hosting node must now be survivable —
// recoveries, not 100% system failures (the pre-recovery-subsystem
// state).
func TestNodeCrashAgainstApplicationNodeRecovers(t *testing.T) {
	env := sift.DefaultEnvConfig()
	env.SharedCheckpoints = true
	recovered, injected := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		res := Run(Config{
			Seed:   9400 + seed,
			Model:  ModelNodeCrash,
			Target: TargetApp,
			Apps:   []*sift.AppSpec{roverTestApp()},
			Env:    &env,
		})
		if res.Injected == 0 {
			continue
		}
		injected++
		if res.Done {
			recovered++
			if res.DaemonReinstalls == 0 {
				t.Errorf("seed %d: run completed after a node crash without a daemon reinstall", seed)
			}
		}
	}
	if injected == 0 {
		t.Fatal("node-crash never injected across 10 seeds")
	}
	if recovered == 0 {
		t.Fatal("no node-crash run against an application node recovered")
	}
}

// declaredFailed reports whether the FTM declared node failed.
func declaredFailed(log *sift.EventLog, node string) bool {
	for e := range log.All(sift.LogNodeDeclaredFailed) {
		if e.Node() == node {
			return true
		}
	}
	return false
}
