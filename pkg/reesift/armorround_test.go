package reesift

import (
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// TestArmorRoundAllocs pins the steady-state ARMOR/SIFT message path: the
// 4-node testbed with the chaos relay service beating, no faults. One
// simulated heartbeat period (10 s: one FTM heartbeat round, one
// Heartbeat-ARMOR poll, one are-you-alive round per daemon, two relay
// beats) originates 20 envelopes. Snapshots, the element context, timers,
// daemon hops and the envelope boxes (the cluster's free list) are all
// reused, and a relay beat allocates nothing either (its progress header
// is boxed once, its counter travels inline, its log entry is typed), so
// the period allocates 0 objects, with or without the race detector; only
// the log's amortised growth can add one. The bound of 2 leaves that
// margin, so one allocation per envelope fails the test by far.
//
// Not parallel: AllocsPerRun counts every allocation in the process.
func TestArmorRoundAllocs(t *testing.T) {
	const (
		period    = 10 * time.Second
		envelopes = 20
		maxAllocs = 2
	)
	c, err := NewCluster(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(5 * time.Second)
	mustSubmit(t, c, ChaosServiceApp(1, "node-b1", 0), c.Now())
	limit := c.Run(6 * period) // installed, pools and scratch buffers warm

	// An envelope is counted where it enters the network (Hops == 0).
	var originated uint64
	c.Kernel().InstallNetFault(1, &sim.NetFault{Match: func(_, _ sim.PID, payload interface{}) bool {
		if env, ok := payload.(*core.Envelope); ok && env.Hops == 0 {
			originated++
		}
		return false // observe only
	}})
	var periods, odd int
	var oddCount uint64
	allocs := testing.AllocsPerRun(5, func() {
		before := originated
		limit += period
		c.Run(limit)
		periods++
		if n := originated - before; n != envelopes {
			odd++
			oddCount = n
		}
	})
	t.Logf("%.0f allocations per heartbeat period, %d envelopes", allocs, envelopes)
	if odd != 0 {
		t.Fatalf("%d of %d periods did not originate %d envelopes (one originated %d)", odd, periods, envelopes, oddCount)
	}
	if allocs > maxAllocs {
		t.Fatalf("one heartbeat period allocates %.0f objects for %d envelopes, want ≤ %d", allocs, envelopes, maxAllocs)
	}
}

// TestArmorReinstallAllocs pins the allocation cost of recovering a
// crashed ARMOR (the SIGINT/Execution ARMOR path of Tables 4–7): on the
// 4-node testbed with the chaos relay service running, each iteration
// kills the service's Execution ARMOR and runs one heartbeat period, in
// which the daemon detects the crash, the FTM reinstalls the ARMOR and it
// restores from its microcheckpoint. The reinstall Resets the dead
// incarnation's runtime instead of rebuilding it, timer records and bound
// body included, and the kill unwinds and reports with the dead process's
// own records, so what remains is the recovery protocol's own traffic, the
// new process, and the fresh element structs; its control messages carry
// their payloads inline and the install its spec's one pointer. A
// reinstall measured 6 objects (8–11 with -race); the bound of 12 leaves
// the race detector's 5 and one more. Before the runtime kept its timer
// records and body and a death its records, it took 11 (13–15), boxing
// every payload 18, and rebuilding the runtime from nothing 75.
//
// Not parallel: AllocsPerRun counts every allocation in the process.
func TestArmorReinstallAllocs(t *testing.T) {
	const (
		period    = 10 * time.Second
		maxAllocs = 12
	)
	c, err := NewCluster(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(5 * time.Second)
	app := ChaosServiceApp(1, "node-b1", 0)
	mustSubmit(t, c, app, c.Now())
	limit := c.Run(6 * period) // installed, pools and scratch buffers warm

	aid := sift.AIDExec(app.ID, 0)
	var reinstalls int
	allocs := testing.AllocsPerRun(10, func() {
		old := c.Env().ProcOf(aid)
		c.Kernel().Kill(old, "SIGINT")
		limit += period
		c.Run(limit)
		if pid := c.Env().ProcOf(aid); pid != old && c.Kernel().Alive(pid) && c.Env().ArmorOf(aid).Restored {
			reinstalls++
		}
	})
	t.Logf("%.0f allocations per reinstall", allocs)
	if reinstalls != 11 {
		t.Fatalf("%d of 11 kills were followed by a restored reinstall within %v", reinstalls, period)
	}
	if allocs > maxAllocs {
		t.Fatalf("one reinstall allocates %.0f objects, want ≤ %d", allocs, maxAllocs)
	}
}
