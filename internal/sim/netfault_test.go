package sim

import (
	"testing"
	"time"
)

// pingBody spawns a sender that transmits n payloads to dst, one per
// millisecond.
func sender(k *Kernel, n *Node, dst PID, count int) {
	k.Spawn(n, "sender", NoPID, func(p *Proc) {
		for i := 0; i < count; i++ {
			p.Send(dst, i)
			p.Sleep(time.Millisecond)
		}
	})
}

// receiverCount spawns a process that counts received messages into got.
func receiverCount(k *Kernel, n *Node, got *[]interface{}) PID {
	return k.Spawn(n, "receiver", NoPID, func(p *Proc) {
		for {
			m := p.Recv()
			*got = append(*got, m.Payload)
		}
	})
}

// TestNetFaultDropIsDeterministic: the same seed drops the same
// messages; a different seed drops different ones; stats count the
// drops.
func TestNetFaultDropIsDeterministic(t *testing.T) {
	deliver := func(faultSeed int64) ([]interface{}, NetFaultStats) {
		k := NewKernel(Config{Seed: 1})
		defer k.Shutdown()
		a := k.AddNode("a")
		b := k.AddNode("b")
		var got []interface{}
		dst := receiverCount(k, b, &got)
		k.InstallNetFault(faultSeed, &NetFault{Drop: 0.5})
		sender(k, a, dst, 40)
		k.Run(time.Second)
		return got, k.NetFaultStats()
	}
	got1, stats1 := deliver(7)
	got2, stats2 := deliver(7)
	if len(got1) != len(got2) || stats1 != stats2 {
		t.Fatalf("same fault seed diverged: %d vs %d messages, %+v vs %+v",
			len(got1), len(got2), stats1, stats2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("message %d differs: %v vs %v", i, got1[i], got2[i])
		}
	}
	if stats1.Dropped == 0 || stats1.Dropped == 40 {
		t.Fatalf("drop rate degenerate: %+v", stats1)
	}
	if len(got1)+stats1.Dropped != 40 {
		t.Fatalf("delivered %d + dropped %d != sent 40", len(got1), stats1.Dropped)
	}
}

// TestNetFaultDoesNotPerturbMainRNG: installing a fault model that
// matches nothing leaves the kernel's main random stream — and thus the
// whole simulation — untouched.
func TestNetFaultDoesNotPerturbMainRNG(t *testing.T) {
	draw := func(install bool) []int64 {
		k := NewKernel(Config{Seed: 42, LatencyJitter: time.Millisecond})
		defer k.Shutdown()
		a := k.AddNode("a")
		var got []interface{}
		dst := receiverCount(k, a, &got)
		if install {
			k.InstallNetFault(99, &NetFault{Drop: 1, Match: func(PID, PID, interface{}) bool { return false }})
		}
		sender(k, a, dst, 10)
		k.Run(time.Second)
		out := make([]int64, 5)
		for i := range out {
			out[i] = k.Rand().Int63()
		}
		return out
	}
	plain := draw(false)
	faulted := draw(true)
	for i := range plain {
		if plain[i] != faulted[i] {
			t.Fatalf("main RNG stream diverged at %d: %d vs %d", i, plain[i], faulted[i])
		}
	}
}

// TestNetFaultMutateCorrupts: the mutate hook replaces matched payloads
// and only counted mutations show in the stats.
func TestNetFaultMutateCorrupts(t *testing.T) {
	k := NewKernel(Config{Seed: 3})
	defer k.Shutdown()
	a := k.AddNode("a")
	var got []interface{}
	dst := receiverCount(k, a, &got)
	k.InstallNetFault(5, &NetFault{
		Corrupt: 1,
		Mutate: func(p interface{}) (interface{}, bool) {
			n, ok := p.(int)
			if !ok || n%2 == 1 {
				return p, false // odd payloads "not understood"
			}
			return -n, true
		},
	})
	sender(k, a, dst, 10)
	k.Run(time.Second)
	if len(got) != 10 {
		t.Fatalf("corruption must not drop: got %d of 10", len(got))
	}
	if k.NetFaultStats().Corrupted != 5 {
		t.Fatalf("corrupted %d, want 5 (even payloads only)", k.NetFaultStats().Corrupted)
	}
	for _, p := range got {
		n := p.(int)
		if n >= 0 && n%2 == 0 && n != 0 {
			t.Fatalf("even payload %d escaped corruption", n)
		}
	}
}

// TestClearNetFault: clearing stops new faults but keeps the stats.
func TestClearNetFault(t *testing.T) {
	k := NewKernel(Config{Seed: 2})
	defer k.Shutdown()
	a := k.AddNode("a")
	var got []interface{}
	dst := receiverCount(k, a, &got)
	k.InstallNetFault(1, &NetFault{Drop: 1})
	sender(k, a, dst, 5)
	k.Run(20 * time.Millisecond)
	dropped := k.NetFaultStats().Dropped
	if dropped != 5 {
		t.Fatalf("dropped %d of 5 before clear", dropped)
	}
	k.ClearNetFault()
	sender(k, a, dst, 5)
	k.Run(time.Second)
	if len(got) != 5 {
		t.Fatalf("after clear, delivered %d of 5", len(got))
	}
	if k.NetFaultStats().Dropped != dropped {
		t.Fatalf("stats changed after clear: %+v", k.NetFaultStats())
	}
}

// TestWatchNodeDeliversNodeDown completes the NodeDown contract: a
// watcher receives the notification when the node crashes, and only
// registered watchers do.
func TestWatchNodeDeliversNodeDown(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	defer k.Shutdown()
	a := k.AddNode("a")
	b := k.AddNode("b")
	var got []interface{}
	watcher := receiverCount(k, a, &got)
	k.WatchNode("b", watcher)
	k.WatchNode("no-such-node", watcher) // no-op
	k.Spawn(b, "victim", NoPID, func(p *Proc) { p.Sleep(time.Hour) })
	k.Schedule(10*time.Millisecond, func() { k.CrashNode("b") })
	k.Run(time.Second)
	found := false
	for _, p := range got {
		if nd, ok := p.(NodeDown); ok && nd.Node == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("watcher never received NodeDown: %v", got)
	}
	// Crashing an already-down node must not renotify.
	n := len(got)
	k.CrashNode("b")
	k.Run(2 * time.Second)
	if len(got) != n {
		t.Fatalf("duplicate NodeDown after double crash: %v", got)
	}
	if b.Up() {
		t.Fatal("node b still up after crash")
	}
}
