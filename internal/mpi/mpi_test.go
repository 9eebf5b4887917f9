package mpi

import (
	"math"
	"slices"
	"testing"
	"time"

	"reesift/internal/sift"
	"reesift/internal/sim"
)

// testConn is a minimal Conn over a raw sim process with a stash.
type testConn struct {
	p     *sim.Proc
	stash []sim.Msg
}

func (c *testConn) Process() *sim.Proc { return c.p }

func (c *testConn) RecvMatch(timeout time.Duration, pred func(sim.Msg) bool) (sim.Msg, bool) {
	for i, m := range c.stash {
		if pred(m) {
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			return m, true
		}
	}
	deadline := c.p.Now() + timeout
	for {
		remain := deadline - c.p.Now()
		if remain <= 0 {
			return sim.Msg{}, false
		}
		m, ok := c.p.RecvTimeout(remain)
		if !ok {
			return sim.Msg{}, false
		}
		if pred(m) {
			return m, true
		}
		c.stash = append(c.stash, m)
	}
}

func newMPIKernel(t *testing.T) *sim.Kernel {
	t.Helper()
	k := sim.NewKernel(sim.DefaultConfig(11))
	t.Cleanup(k.Shutdown)
	return k
}

// spawnWorld runs a 3-rank world; each rank's body receives its World.
func spawnWorld(t *testing.T, k *sim.Kernel, body func(w *World, rank int)) {
	t.Helper()
	a := k.AddNode("a")
	b := k.AddNode("b")
	workers := map[int]sim.PID{}
	leaderReady := make(chan struct{}) // never used across goroutines; placeholder
	_ = leaderReady
	var worker func(rank int) func(*sim.Proc)
	worker = func(rank int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			c := &testConn{p: p}
			w, err := JoinWorker(c, 7, rank, 30*time.Second)
			if err != nil {
				p.Exit(1, err.Error())
			}
			body(w, rank)
		}
	}
	workers[1] = k.Spawn(b, "r1", sim.NoPID, worker(1))
	workers[2] = k.Spawn(a, "r2", sim.NoPID, worker(2))
	k.Spawn(a, "r0", sim.NoPID, func(p *sim.Proc) {
		c := &testConn{p: p}
		w, err := NewLeader(c, 7, 3, workers, 30*time.Second)
		if err != nil {
			p.Exit(1, err.Error())
		}
		body(w, 0)
	})
}

func TestWorldFormation(t *testing.T) {
	k := newMPIKernel(t)
	sizes := make(map[int]int)
	spawnWorld(t, k, func(w *World, rank int) {
		sizes[rank] = w.Size()
	})
	k.Run(time.Minute)
	for rank := 0; rank < 3; rank++ {
		if sizes[rank] != 3 {
			t.Fatalf("rank %d saw world size %d", rank, sizes[rank])
		}
	}
}

func TestSendRecv(t *testing.T) {
	k := newMPIKernel(t)
	var got []float64
	spawnWorld(t, k, func(w *World, rank int) {
		switch rank {
		case 0:
			w.Send(1, "data", []float64{1, 2, 3})
		case 1:
			d, err := w.Recv(0, "data", 20*time.Second)
			if err == nil {
				got = d
			}
		}
	})
	k.Run(time.Minute)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestLeaderStartupTimeoutWhenWorkerMissing(t *testing.T) {
	k := newMPIKernel(t)
	a := k.AddNode("a")
	var startupErr error
	k.Spawn(a, "r0", sim.NoPID, func(p *sim.Proc) {
		c := &testConn{p: p}
		// Worker PID 999 does not exist: the world never forms.
		_, startupErr = NewLeader(c, 7, 2, map[int]sim.PID{1: 999}, 5*time.Second)
	})
	k.Run(time.Minute)
	if startupErr == nil {
		t.Fatal("expected startup timeout")
	}
}

func TestRecvTimesOutOnDeadPeer(t *testing.T) {
	k := newMPIKernel(t)
	var recvErr error
	var killPID sim.PID
	spawnWorld(t, k, func(w *World, rank int) {
		switch rank {
		case 0:
			killPID = w.PID(1)
			_, recvErr = w.Recv(1, "never", 10*time.Second)
		case 1:
			w.conn.Process().Sleep(time.Hour)
		}
	})
	k.Schedule(2*time.Second, func() {
		if killPID != sim.NoPID {
			k.Kill(killPID, "SIGINT")
		}
	})
	k.Run(time.Hour)
	if recvErr == nil {
		t.Fatal("expected receive timeout from dead peer")
	}
}

// TestSendSharesTheSendersArray pins Send's ownership rule, the path the
// rover takes when it sends a memoized step's own array: receivers get the
// sender's backing array, not a copy, and a receiver that flips what it
// got through a copy-on-write heap registration changes only its own view,
// not the other receiver's or the sender's.
func TestSendSharesTheSendersArray(t *testing.T) {
	k := newMPIKernel(t)
	sent := []float64{1, 2, 3, 4}
	pristine := slices.Clone(sent)
	got := make(map[int][]float64)
	var flipped []float64
	spawnWorld(t, k, func(w *World, rank int) {
		var d []float64
		if rank == 0 {
			d = sent
			w.Send(1, "b", d)
			w.Send(2, "b", d)
		} else {
			var err error
			if d, err = w.Recv(0, "b", 30*time.Second); err != nil {
				return
			}
		}
		got[rank] = d
		if rank == 1 {
			ac := &sift.AppContext{}
			ac.RegisterHeapF64("payload", &d)
			ac.FlipHeapF64(2, 0)
			flipped = d
		}
	})
	k.Run(time.Minute)
	for rank := 0; rank < 3; rank++ {
		if len(got[rank]) != len(sent) || &got[rank][0] != &sent[0] {
			t.Fatalf("rank %d did not receive the sender's backing array", rank)
		}
	}
	want := slices.Clone(pristine)
	want[2] = math.Float64frombits(math.Float64bits(want[2]) ^ 1)
	if !slices.Equal(flipped, want) {
		t.Fatalf("rank 1's flipped view = %v, want %v", flipped, want)
	}
	if !slices.Equal(sent, pristine) || !slices.Equal(got[2], pristine) {
		t.Fatalf("rank 1's flip reached the shared array: sender %v, rank 2 %v", sent, got[2])
	}
}
