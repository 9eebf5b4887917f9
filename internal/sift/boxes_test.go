package sift

import (
	"testing"
	"time"

	"reesift/internal/sim"
)

// startBeatingApp boots the 4-node testbed and submits a two-rank app that
// beats its progress indicator every second for longer than any test here
// runs. It returns once rank 1's context exists.
func startBeatingApp(t *testing.T) (*sim.Kernel, *Environment, *AppContext) {
	t.Helper()
	k, env := newTestEnv(t, 41)
	env.Submit(testAppSpec(1, 600, time.Second), 5*time.Second)
	var ac *AppContext
	for at := 5 * time.Second; ac == nil; at += 100 * time.Millisecond {
		if at > time.Minute {
			t.Fatal("rank 1 never started")
		}
		k.Run(at)
		ac = env.AppCtx(1, 1)
	}
	return k, env, ac
}

// The Execution ARMOR resends ChannelOpen every RetryInterval for the life
// of the rank, because no application acks it. The rank must drop the
// resends instead of stashing every copy for a RecvMatch that never asks.
func TestAppStashDropsUnconsumableEnvelopes(t *testing.T) {
	k, _, ac := startBeatingApp(t)
	const retry = 2 * time.Second // core's default RetryInterval
	now := k.Now()
	for end := now + 20*retry; now < end; {
		now = k.Run(now + 100*time.Millisecond)
		if n := len(ac.stash); n > 1 {
			t.Fatalf("at %v rank 1 stashes %d messages, want ≤ 1", now, n)
		}
	}
	if ac.seq < 10 {
		t.Fatalf("rank 1 sent %d reliable messages: the channel never opened", ac.seq)
	}
}

// After warm-up a heartbeat period boxes every envelope from the free list:
// no box is allocated, and the list does not grow from period to period.
func TestSteadyStateHeartbeatAllocatesNoBoxes(t *testing.T) {
	k, env, _ := startBeatingApp(t)
	const period = 10 * time.Second
	now := k.Run(k.Now() + 6*period)
	made0, free0 := env.boxes.Stats()
	if made0 == 0 {
		t.Fatal("no envelope was ever boxed from the cluster's list")
	}
	for i := 1; i <= 6; i++ {
		now = k.Run(now + period)
		made, free := env.boxes.Stats()
		if made != made0 {
			t.Fatalf("period %d allocated %d boxes (%d → %d)", i, made-made0, made0, made)
		}
		if free > free0 {
			t.Fatalf("period %d: free list grew %d → %d", i, free0, free)
		}
	}
}

// Shutting a finished trial's environment down, as Runner.Release does,
// takes back every box the cluster's free list made, the ones that dead
// processes and lost messages still held included, so the next trial on
// the reused environment boxes from the list without making new ones.
func TestShutdownReclaimsEveryBox(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(5))
	env := New(k, resetTestConfig())
	envTrial(k, env)
	made, free := env.boxes.Stats()
	if made == 0 || free == made {
		t.Fatalf("the trial left %d of %d boxes free: none held, nothing under test", free, made)
	}
	env.Shutdown()
	if made, free := env.boxes.Stats(); made != free {
		t.Fatalf("after Shutdown %d of %d boxes are free", free, made)
	}
	envTrial(k.Reset(sim.DefaultConfig(5)), env.Reset(k, resetTestConfig()))
	env.Shutdown()
	if again, free := env.boxes.Stats(); again != made || free != again {
		t.Fatalf("the same trial again: %d boxes made (%d the first time), %d free", again, made, free)
	}
}
