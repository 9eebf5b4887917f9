package chaos

import (
	"testing"
	"time"

	"reesift/internal/sift"
	"reesift/internal/sim"
)

// TestServiceBeatAllocatesNothing pins the steady-state cost of the relay
// service's beat — a progress-indicator update through the daemons to the
// Execution ARMOR, its ack, and the beat's log entry — at no allocation:
// the header of the update is boxed once, its counter travels inline, and
// the log entry is typed. Only the amortised growth of the log's entry
// slice may allocate. The idle 4-node cluster allocates nothing in steady
// state either, so the count is the beats' own.
func TestServiceBeatAllocatesNothing(t *testing.T) {
	const (
		beats    = 1000
		maxAlloc = 0.05 // per beat
	)
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
	t.Logf("%.0f allocations for %d beats", allocs, beats)
	if perBeat := allocs / beats; perBeat > maxAlloc {
		t.Fatalf("a service beat allocates %.3f objects, want ≤ %.2f", perBeat, maxAlloc)
	}
}
