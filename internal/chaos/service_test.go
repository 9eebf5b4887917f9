package chaos

import (
	"testing"
	"time"

	"reesift/internal/sift"
	"reesift/internal/sim"
)

// TestServiceBeatAllocatesNothing pins the steady-state cost of the relay
// service's beat — a progress-indicator update through the daemons to the
// Execution ARMOR, its ack, and the beat's log record — at no allocation:
// the header of the update is boxed once, its counter travels inline, and
// the log counts the beat without storing it. The idle 4-node cluster
// allocates nothing in steady state either, so the count is the beats'
// own.
func TestServiceBeatAllocatesNothing(t *testing.T) {
	const beats = 1000
	k := sim.NewKernel(sim.DefaultConfig(1))
	t.Cleanup(k.Shutdown)
	env := sift.New(k, sift.DefaultEnvConfig())
	env.Setup()
	env.Submit(ServiceApp(1, "node-b1", DefaultServicePeriod), 5*time.Second)
	limit := k.Run(2 * time.Minute) // installed and beating
	counted := true
	allocs := testing.AllocsPerRun(1, func() {
		before := env.Log.Count(BeatKind)
		limit += beats * DefaultServicePeriod
		k.Run(limit)
		counted = counted && env.Log.Count(BeatKind)-before == beats
	})
	if !counted {
		t.Fatalf("a window of %v did not log %d beats", beats*DefaultServicePeriod, beats)
	}
	if allocs != 0 {
		t.Fatalf("%d service beats allocate %.0f objects, want none", beats, allocs)
	}
}
