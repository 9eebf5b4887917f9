package reesift

import (
	"runtime"
	"testing"
	"time"

	"reesift/internal/sift"
	"reesift/internal/sim"
)

// beatApp is a two-rank application with no numeric compute: each rank
// creates a progress indicator, beats it five times, 20 s apart, and
// exits.
func beatApp() *AppSpec {
	const period = 20 * time.Second
	spec := &AppSpec{ID: 1, Name: "beat", Ranks: 2, Nodes: []string{"node-a1", "node-a2"},
		PIPeriod: period, MPIStartTimeout: 10 * time.Second}
	spec.Launcher = func(ac *sift.AppContext) {
		if ac.Rank == 0 {
			ac.SendPIDs(map[int]sim.PID{1: ac.SpawnRank("", 1)})
		} else if !ac.WaitChannelOpen(2 * time.Minute) {
			ac.Proc.Exit(3, "channel open timeout")
		}
		ac.PICreate(period)
		for i := uint64(1); i <= 5; i++ {
			ac.Proc.Sleep(period)
			ac.Step()
			ac.Progress(i)
		}
		ac.NotifyExiting()
	}
	return spec
}

// TestTrialReuseAllocs pins what one campaign trial allocates once its
// worker's trial kit (kernel, environment, daemons, ARMOR runtimes and
// their pools) is warm: a cell shaped like the benchmark's
// campaign-recovery cells — the FTM's node crashed under a beating
// two-rank application, checkpoints on the shared store — run on one
// worker. The trials after the first are counted, as the difference
// between a 21-run and a 1-run campaign. A trial measured 425 objects (438
// with -race); building every trial's kit anew, the same cell took 981
// (and the benchmark's six cells 1,202 on average). The bound of 500
// leaves the race detector's 13 and about 60 more.
//
// Not parallel: it counts every allocation in the process.
func TestTrialReuseAllocs(t *testing.T) {
	const maxAllocs = 500
	campaign := func(runs int) uint64 {
		c := Campaign{Name: "trial-reuse", Seed: 1, Workers: 1, Cells: []CampaignCell{{
			Name: "node-crash/ftm-node", Runs: runs,
			Injection: Injection{Model: ModelNodeCrash, Target: TargetFTM,
				Cluster: []Option{WithSharedCheckpoints()}, Apps: []*AppSpec{beatApp()}},
		}}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := c.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if tally := res.Tally; tally.Runs != int64(runs) || tally.Failures == 0 {
			t.Fatalf("%d-run campaign: tally %+v, want every run and some failures", runs, tally)
		}
		return after.Mallocs - before.Mallocs
	}
	campaign(1) // warm a kit
	one, many := campaign(1), campaign(21)
	allocs := float64(many-one) / 20
	t.Logf("%.0f allocations per trial", allocs)
	if allocs > maxAllocs {
		t.Fatalf("one trial allocates %.0f objects, want ≤ %d", allocs, maxAllocs)
	}
}
