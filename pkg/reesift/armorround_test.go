package reesift

import (
	"testing"
	"time"

	"reesift/internal/core"
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
	c.Submit(ChaosServiceApp(1, "node-b1", 0), c.Now())
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
