package reesift

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// TestArmorsHoldNoCoroutine checks that an ARMOR costs no goroutine: on a
// 120-node cluster running six 25-rank applications, once the daemons,
// the FTM, the Heartbeat ARMOR and all 150 Execution ARMORs are up, the
// process holds fewer goroutines than there are ARMOR processes. Every
// ARMOR runs as a handler process, so only the application ranks, the SCC
// and the test's own goroutines hold one (pooled coroutines left idle by
// earlier tests count too); with the ARMORs on coroutines of their own
// the count would exceed the ARMORs by more than the ranks' 150. This is
// what keeps a wide cluster's resident set free of one goroutine stack
// per ARMOR.
//
// Not parallel: it counts every goroutine in the process.
func TestArmorsHoldNoCoroutine(t *testing.T) {
	const (
		nodes  = 120
		apps   = 6
		ranks  = 25
		period = 20 * time.Second
	)
	c, err := NewCluster(WithSeed(1), WithNodes(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for a := range apps {
		hosts := make([]string, ranks)
		for r := range hosts {
			hosts[r] = fmt.Sprintf("n%d", 1+(a*ranks+r)%nodes)
		}
		spec := &AppSpec{ID: AppID(a + 1), Name: fmt.Sprintf("beat-%d", a+1), Ranks: ranks,
			Nodes: hosts, PIPeriod: period, MPIStartTimeout: 10 * time.Second}
		spec.Launcher = func(ac *sift.AppContext) {
			if ac.Rank == 0 {
				for r := 1; r < ranks; r++ {
					ac.SendPIDs(map[int]sim.PID{r: ac.SpawnRank("", r)})
				}
			} else if !ac.WaitChannelOpen(2 * time.Minute) {
				ac.Proc.Exit(3, "channel open timeout")
			}
			ac.PICreate(period)
			for i := uint64(1); ; i++ {
				ac.Proc.Sleep(period)
				ac.Step()
				ac.Progress(i)
			}
		}
		mustSubmit(t, c, spec, 30*time.Second)
	}
	c.Run(3 * time.Minute)

	env := c.Env()
	armors := nodes // one daemon per node
	for _, aid := range append([]core.AID{sift.AIDFTM, sift.AIDHeartbeat}, execAIDs(apps, ranks)...) {
		if c.Kernel().Alive(env.ProcOf(aid)) {
			armors++
		}
	}
	if want := nodes + 2 + apps*ranks; armors != want {
		t.Fatalf("%d ARMOR processes are up, want %d: the cluster did not settle", armors, want)
	}
	if live := c.Kernel().LiveProcs(); live < armors+apps*ranks {
		t.Fatalf("%d live processes, want the %d ARMORs and %d ranks", live, armors, apps*ranks)
	}
	g := runtime.NumGoroutine()
	t.Logf("%d goroutines for %d ARMOR processes and %d ranks", g, armors, apps*ranks)
	if g >= armors {
		t.Fatalf("%d goroutines for %d ARMOR processes: the ARMORs hold coroutines", g, armors)
	}
}

// execAIDs lists the Execution ARMORs of ranks ranks of apps applications.
func execAIDs(apps, ranks int) []core.AID {
	var aids []core.AID
	for a := range apps {
		for r := range ranks {
			aids = append(aids, sift.AIDExec(AppID(a+1), r))
		}
	}
	return aids
}
