package sim

import (
	"testing"
	"time"

	"reesift/internal/analysis/noalloc/noalloctest"
)

// TestNoallocRuntime is the measured half of the //reesift:noalloc
// contract for this package: the scenarios below must run at zero
// allocations, and every annotated function must be named by one.
func TestNoallocRuntime(t *testing.T) {
	noalloctest.Verify(t, []noalloctest.Check{eventLoopCheck(), procCheck(t), handlerCheck(t)})
}

// eventLoopCheck drives the bare event loop: a self-re-arming tick that
// pushes a watchdog out with Reschedule and arms and cancels a one-off.
func eventLoopCheck() noalloctest.Check {
	k := NewKernel(Config{Seed: 1})
	noop := func() {}
	wd := k.Schedule(time.Minute, noop)
	var tick func()
	tick = func() {
		wd.Reschedule(time.Minute)
		once := k.Schedule(time.Hour, noop)
		if !once.Pending() || once.At() == 0 {
			panic("one-off not pending")
		}
		once.Cancel()
		k.Schedule(time.Millisecond, tick)
	}
	k.Schedule(time.Millisecond, tick)
	var limit time.Duration
	return noalloctest.Check{
		Name: "event loop",
		Covers: []string{
			"Event.live", "Event.Cancel", "Event.Pending", "Event.At", "Event.Reschedule",
			"eventHeap.less", "eventHeap.push", "eventHeap.peek", "eventHeap.pop", "eventHeap.remove",
			"eventHeap.fix", "eventHeap.up", "eventHeap.down", "eventHeap.swap",
			"Kernel.allocEvent", "Kernel.recycle", "Kernel.newEvent", "Kernel.Schedule", "Kernel.fire", "Kernel.Run",
		},
		Run: func() {
			limit += 100 * time.Millisecond
			k.Run(limit)
		},
	}
}

// procCheck drives every blocking call of the process API between two
// nodes: a ping-pong, a sleep, a yield, a timer, and a receive timeout
// that expires.
func procCheck(t *testing.T) noalloctest.Check {
	k := NewKernel(Config{Seed: 1, LocalLatency: 100 * time.Microsecond, RemoteLatency: time.Millisecond,
		LatencyJitter: 10 * time.Microsecond})
	t.Cleanup(k.Shutdown)
	payload := interface{}(&struct{ beat int }{1}) // boxed once
	echo := k.Spawn(k.AddNode("far"), "echo", NoPID, func(p *Proc) {
		for {
			m := p.Recv()
			p.Send(m.From, m.Payload)
		}
	})
	k.Spawn(k.AddNode("near"), "driver", NoPID, func(p *Proc) {
		for {
			p.Send(echo, payload)
			p.Recv()
			p.Sleep(time.Millisecond)
			p.After(time.Millisecond, payload)
			if _, ok := p.RecvTimeout(time.Second); !ok {
				panic("timer lost")
			}
			if _, ok := p.RecvTimeout(time.Millisecond); ok {
				panic("message from nowhere")
			}
		}
	})
	var limit time.Duration
	return noalloctest.Check{
		Name: "process API",
		Covers: []string{
			"Proc.pushMsg", "Proc.popMsg", "Proc.park", "Proc.Sleep", "Proc.Send",
			"Proc.Recv", "Proc.RecvTimeout", "Proc.After",
			"Kernel.deliver", "Kernel.scheduleDeliver", "Kernel.scheduleWake", "Kernel.scheduleTimeout",
			"Kernel.pushReady", "Kernel.popReady", "Kernel.drainReady", "Kernel.dispatch", "Kernel.makeReady",
			"Kernel.latency",
		},
		Run: func() {
			limit += 100 * time.Millisecond
			k.Run(limit)
		},
	}
}

// handlerCheck drives a handler process: a ping-pong with a body driver,
// every other message set aside by Block to sleep on a borrowed
// coroutine before it answers.
func handlerCheck(t *testing.T) noalloctest.Check {
	k := NewKernel(Config{Seed: 1, LocalLatency: 100 * time.Microsecond, RemoteLatency: time.Millisecond,
		LatencyJitter: 10 * time.Microsecond})
	t.Cleanup(k.Shutdown)
	ping := interface{}(&struct{ beat int }{1}) // boxed once
	nap := interface{}(&struct{ beat int }{2})
	echo := k.SpawnHandler(k.AddNode("far"), "echo", NoPID, &echoHandler{block: nap, nap: time.Millisecond})
	k.Spawn(k.AddNode("near"), "driver", NoPID, func(p *Proc) {
		for {
			p.Send(echo, ping)
			p.Recv()
			p.Send(echo, nap)
			p.Recv()
		}
	})
	var limit time.Duration
	return noalloctest.Check{
		Name: "handler process",
		Covers: []string{
			"Kernel.runHandler", "Proc.Block", "Proc.unpopMsg", "Proc.makeRoom", "Proc.mayBlock",
		},
		Run: func() {
			limit += 100 * time.Millisecond
			k.Run(limit)
		},
	}
}
