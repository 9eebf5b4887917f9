package sim

import (
	"iter"
	"sync"
)

// coro is a pooled iter.Pull coroutine that runs process bodies, and
// handler messages set aside by Proc.Block, one after another. The kernel
// resumes it with next and the body hands control back with yield: a
// direct goroutine switch, with no channel, run queue or second P
// involved.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// p is the process the coroutine runs. It is cleared once p.main has
	// returned, which is how dispatch tells a reusable coroutine from one
	// that is still running a body or a message.
	p *Proc
}

// coroPool is the process-wide free list of idle coroutines, shared by
// every kernel (campaign workers run kernels on several goroutines). It is
// filled only by dispatch, after the coroutine has yielded, so a released
// coroutine is never resumed while it still runs. A sync.Pool would not
// do: it drops entries at GC, and a dropped coroutine stays parked forever.
var coroPool struct {
	sync.Mutex
	free []*coro
}

// getCoro assigns p to an idle coroutine, making one when the pool is
// empty. The process body starts at the coroutine's next resume.
func getCoro(p *Proc) *coro {
	var c *coro
	coroPool.Lock()
	if n := len(coroPool.free); n > 0 {
		c = coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
	}
	coroPool.Unlock()
	if c == nil {
		c = &coro{}
		c.next, _ = iter.Pull(c.loop)
	}
	c.p = p
	return c
}

// putCoro returns an idle coroutine to the pool. Only the kernel side may
// call it, after next has returned with c.p == nil.
func putCoro(c *coro) {
	coroPool.Lock()
	coroPool.free = append(coroPool.free, c)
	coroPool.Unlock()
}

// loop is the coroutine body: run the assigned process to completion (or
// a handler process's one message), report the return with one more
// yield, and wait for the next process.
// A body that ends in runtime.Goexit or a panic escaping main never clears
// c.p: iter.Pull re-raises the exit in the kernel's goroutine, and the
// dead coroutine is not pooled. stop is never called, so yield always
// returns true.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.main()
		c.p = nil
		yield(struct{}{})
	}
}
