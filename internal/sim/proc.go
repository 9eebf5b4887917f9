package sim

import (
	"fmt"
	"time"

	"reesift/internal/trace"
)

type procState int

const (
	stateNew procState = iota + 1
	stateReady
	stateRunning
	stateWaiting // parked in Sleep, Recv, or RecvTimeout
	stateDead
)

// ExitStatus records how a process terminated.
type ExitStatus struct {
	Code   int
	Reason string // empty for normal exit
	At     time.Duration
}

// Proc is a simulated operating-system process. A Proc's body function runs
// on a coroutine of its own, which the kernel resumes to run the process and
// which switches back to the kernel whenever the process parks, so only one
// process executes at a time. All Proc methods below the "process context"
// marker must be called from the body function itself.
type Proc struct {
	kernel *Kernel
	node   *Node
	pid    PID
	name   string
	parent PID

	state       procState
	suspended   bool
	pendingWake bool
	killed      bool
	killReason  string

	// inbox is a ring buffer (head/len indices) so receives stop
	// resliced-prefix churn and steady-state send/recv reuses one
	// backing array per process.
	inbox     []Msg
	inboxHead int
	inboxLen  int

	// co is the coroutine running the body, from Spawn until the body has
	// fully unwound.
	co *coro

	// waitSeq stamps each blocking wait so stale timer wakeups (a sleep
	// timer firing after the process has moved on to a different wait)
	// are ignored.
	waitSeq uint64
	// recvWaiting is true only while the process is parked waiting for
	// inbox messages; message delivery wakes the process only then, so
	// arrivals cannot cut a Sleep short.
	recvWaiting bool

	children map[PID]*Proc
	exit     *ExitStatus

	// timedOut is set by an expired RecvTimeout timer.
	timedOut bool

	// Extra is an arbitrary per-process annotation slot. The fault
	// injectors use it to attach simulated memory images to a process
	// without the kernel knowing about them.
	Extra interface{}

	body func(*Proc)
}

// pushMsg appends m to the inbox ring, growing (and linearizing) the ring
// when full.
//
//reesift:noalloc
func (p *Proc) pushMsg(m Msg) {
	if p.inboxLen == len(p.inbox) {
		grown := make([]Msg, max(8, 2*len(p.inbox)))
		for i := 0; i < p.inboxLen; i++ {
			grown[i] = p.inbox[(p.inboxHead+i)%len(p.inbox)]
		}
		p.inbox = grown
		p.inboxHead = 0
	}
	p.inbox[(p.inboxHead+p.inboxLen)%len(p.inbox)] = m
	p.inboxLen++
}

// popMsg removes and returns the oldest inbox message. The vacated slot is
// zeroed so the ring does not pin delivered payloads for the GC.
//
//reesift:noalloc
func (p *Proc) popMsg() Msg {
	m := p.inbox[p.inboxHead]
	p.inbox[p.inboxHead] = Msg{}
	p.inboxHead = (p.inboxHead + 1) % len(p.inbox)
	p.inboxLen--
	return m
}

// procUnwind is panicked inside a process body to unwind its coroutine when
// the process exits or is killed.
type procUnwind struct {
	code   int
	reason string
}

// Spawn creates a process on node n whose body is fn. The process becomes
// runnable immediately (at the current virtual time). parent may be NoPID
// for top-level processes; otherwise the parent receives a ChildExit
// message when the process dies.
func (k *Kernel) Spawn(n *Node, name string, parent PID, fn func(*Proc)) PID {
	if !n.up {
		panic(fmt.Sprintf("sim: spawn %q on down node %q", name, n.name))
	}
	p := &Proc{
		kernel:   k,
		node:     n,
		pid:      k.nextPID,
		name:     name,
		parent:   parent,
		state:    stateNew,
		children: make(map[PID]*Proc),
		body:     fn,
	}
	k.nextPID++
	k.procs = append(k.procs, p) // dense table: p.pid == len(k.procs)-1
	n.procs[p.pid] = p
	k.liveProcs++
	if pp := k.proc(parent); pp != nil {
		pp.children[p.pid] = p
	}
	p.co = getCoro(p)
	p.state = stateWaiting
	k.makeReady(p)
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindProcSpawn, Op: name, Node: n.name, PID: int64(p.pid)})
	}
	return p.pid
}

// main runs the process body on its coroutine, from the first dispatch to
// finalize. Every exit, kill and crash unwinds to here.
func (p *Proc) main() {
	code, reason := 0, ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				switch u := r.(type) {
				case procUnwind:
					code, reason = u.code, u.reason
				default:
					// An uncaught panic in simulated application or
					// ARMOR code is the moral equivalent of a
					// segmentation fault: the process crashes and the
					// parent observes an abnormal exit.
					code, reason = 139, fmt.Sprintf("segmentation fault: %v", r)
				}
			}
		}()
		if p.killed {
			panic(procUnwind{code: 137, reason: p.killReason})
		}
		p.body(p)
	}()
	p.kernel.finalize(p, code, reason)
}

// finalize tears down a dead process: removes it from the node table,
// notifies the parent, and reparents children. Runs on the dying process's
// coroutine, as the last step of main.
func (k *Kernel) finalize(p *Proc, code int, reason string) {
	if p.state == stateDead {
		return
	}
	p.state = stateDead
	k.liveProcs--
	delete(p.node.procs, p.pid)
	p.exit = &ExitStatus{Code: code, Reason: reason, At: k.now}
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindProcExit, Op: p.name, Node: p.node.name,
			PID: int64(p.pid), A: int64(code), Detail: reason})
	}
	if pp := k.proc(p.parent); pp != nil && pp.state != stateDead {
		delete(pp.children, p.pid)
		k.deliver(p.parent, Msg{From: p.pid, SentAt: k.now, Payload: ChildExit{
			Child: p.pid, Name: p.name, Code: code, Reason: reason,
		}})
	}
	// Orphaned children keep running (init adopts them); they simply no
	// longer have a parent to notify.
	for _, c := range p.children {
		c.parent = NoPID
	}
	p.children = nil
	p.inbox = nil
	p.inboxHead = 0
	p.inboxLen = 0
}

// Kill terminates a process abruptly (the SIGINT error model: the process
// leaves the process table and its parent's waitpid returns). Killing a
// dead or unknown process is a no-op. Must be called from kernel context
// (an event callback), not from the victim itself.
func (k *Kernel) Kill(pid PID, reason string) {
	p := k.proc(pid)
	if p == nil || p.state == stateDead {
		return
	}
	p.killed = true
	p.killReason = reason
	p.suspended = false
	if p.state == stateWaiting {
		p.state = stateReady
		k.pushReady(p)
	}
	// If ready, the kill takes effect at dispatch; park() panics.
}

// Suspend stops a process from making progress while leaving it in the
// process table (the SIGSTOP error model: a clean hang). Messages and
// timers destined for a suspended process queue up; none of them wake it
// until Resume.
func (k *Kernel) Suspend(pid PID) {
	p := k.proc(pid)
	if p == nil || p.state == stateDead {
		return
	}
	p.suspended = true
	if p.state == stateReady {
		// Un-ready it; drainReady skips non-ready procs.
		p.state = stateWaiting
		p.pendingWake = true
	}
}

// Resume undoes Suspend. Any wakeups that arrived while suspended take
// effect immediately.
func (k *Kernel) Resume(pid PID) {
	p := k.proc(pid)
	if p == nil || p.state == stateDead || !p.suspended {
		return
	}
	p.suspended = false
	if p.pendingWake {
		p.pendingWake = false
		k.makeReady(p)
	}
}

// Alive reports whether pid names a live (possibly suspended) process. It
// is the process-table probe used by Execution ARMORs to detect crashes of
// MPI ranks they did not launch themselves.
func (k *Kernel) Alive(pid PID) bool {
	p := k.proc(pid)
	return p != nil && p.state != stateDead
}

// Suspended reports whether pid is currently suspended.
func (k *Kernel) Suspended(pid PID) bool {
	p := k.proc(pid)
	return p != nil && p.suspended
}

// Exit returns the exit status of a dead process, or nil if the process is
// alive or unknown.
func (k *Kernel) Exit(pid PID) *ExitStatus {
	p := k.proc(pid)
	if p == nil {
		return nil
	}
	return p.exit
}

// ProcName returns the name a process was spawned with.
func (k *Kernel) ProcName(pid PID) string {
	p := k.proc(pid)
	if p == nil {
		return ""
	}
	return p.name
}

// ProcNode returns the node a process lives on, or nil.
func (k *Kernel) ProcNode(pid PID) *Node {
	p := k.proc(pid)
	if p == nil {
		return nil
	}
	return p.node
}

// deliver appends a message to the destination inbox, waking the process
// if it is parked in a receive. Dead destinations drop silently, exactly
// like UDP to a dead port; reliability is layered above in internal/core.
//
//reesift:noalloc
func (k *Kernel) deliver(dst PID, m Msg) {
	p := k.proc(dst)
	if p == nil || p.state == stateDead || !p.node.up {
		return
	}
	p.pushMsg(m)
	if p.state == stateWaiting && p.recvWaiting {
		k.makeReady(p)
	}
	// A process that is computing (sleeping) or suspended finds the
	// message in its inbox at its next receive.
}

// SendExternal injects a message from outside the simulation (kernel
// context) into a process inbox after the local delivery latency. The
// experiment controller uses it to stand in for the SCC's uplink.
func (k *Kernel) SendExternal(dst PID, payload interface{}) {
	k.scheduleDeliver(k.cfg.LocalLatency, dst, Msg{From: NoPID, SentAt: k.now, Payload: payload})
}

// ---------------------------------------------------------------------------
// Process context: the methods below must be called from the process's own
// body function.
// ---------------------------------------------------------------------------

// park switches back to the kernel and returns when the process is next
// dispatched.
//
//reesift:noalloc
func (p *Proc) park() {
	p.co.yield(struct{}{})
	if p.killed {
		//reesift:allow noalloc -- kill-path unwind: boxes once when the process dies, never on the steady-state park/dispatch cycle
		panic(procUnwind{code: 137, reason: p.killReason})
	}
}

// Self returns the process's PID.
func (p *Proc) Self() PID { return p.pid }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Node returns the node the process runs on.
func (p *Proc) Node() *Node { return p.node }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.kernel }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.kernel.now }

// Parent returns the parent PID (NoPID if orphaned or top-level).
func (p *Proc) Parent() PID { return p.parent }

// Sleep blocks the process for d of virtual time. It models computation as
// well as idle waiting; the texture-analysis filters "compute" by sleeping
// for their calibrated phase duration while the real (small) numeric
// kernels run instantaneously in wall-clock terms.
//
//reesift:noalloc
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	p.waitSeq++
	p.kernel.scheduleWake(d, p, p.waitSeq)
	p.state = stateWaiting
	p.park()
}

// Yield cedes the processor so other runnable processes at the same virtual
// time can make progress.
//
//reesift:noalloc
func (p *Proc) Yield() {
	p.waitSeq++
	p.kernel.scheduleWake(0, p, p.waitSeq)
	p.state = stateWaiting
	p.park()
}

// Send transmits a payload to dst with the network latency between the two
// nodes. Delivery is unreliable by design: messages to dead processes or
// down nodes vanish.
//
//reesift:noalloc
func (p *Proc) Send(dst PID, payload interface{}) {
	k := p.kernel
	dp := k.proc(dst)
	if dp == nil {
		return
	}
	if !p.node.up {
		return
	}
	lat := k.latency(p.node, dp.node)
	m := Msg{From: p.pid, SentAt: k.now, Payload: payload}
	k.msgsSent++
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindMsgSend, Node: p.node.name,
			PID: int64(p.pid), A: int64(dst)})
	}
	if k.applyNetFault(p.pid, dst, &m, &lat) {
		return
	}
	k.scheduleDeliver(lat, dst, m)
}

// Recv blocks until a message arrives and returns it.
//
//reesift:noalloc
func (p *Proc) Recv() Msg {
	for p.inboxLen == 0 {
		p.waitSeq++
		p.recvWaiting = true
		p.state = stateWaiting
		p.park()
		p.recvWaiting = false
	}
	return p.popMsg()
}

// RecvTimeout blocks until a message arrives or d elapses. ok is false on
// timeout.
//
//reesift:noalloc
func (p *Proc) RecvTimeout(d time.Duration) (Msg, bool) {
	if p.inboxLen > 0 {
		return p.popMsg(), true
	}
	p.timedOut = false
	p.waitSeq++
	timer := p.kernel.scheduleTimeout(d, p, p.waitSeq)
	for p.inboxLen == 0 {
		if p.timedOut {
			p.timedOut = false
			return Msg{}, false
		}
		p.recvWaiting = true
		p.state = stateWaiting
		p.park()
		p.recvWaiting = false
	}
	timer.Cancel()
	p.timedOut = false
	return p.popMsg(), true
}

// After delivers payload to the process's own inbox after d: a timer is a
// delayed self-send, told apart from network traffic by its payload type.
// With a pointer payload the whole arm/fire cycle is allocation-free. It
// returns a handle the caller can cancel or reschedule.
//
//reesift:noalloc
func (p *Proc) After(d time.Duration, payload interface{}) Event {
	return p.kernel.scheduleDeliver(d, p.pid, Msg{From: p.pid, SentAt: p.kernel.now, Payload: payload})
}

// SpawnChild starts a child process on the given node. The child's exit is
// reported to this process as a ChildExit inbox message (waitpid).
func (p *Proc) SpawnChild(n *Node, name string, fn func(*Proc)) PID {
	return p.kernel.Spawn(n, name, p.pid, fn)
}

// Exit terminates the process with the given code.
func (p *Proc) Exit(code int, reason string) {
	panic(procUnwind{code: code, reason: reason})
}

// Crash terminates the process abnormally, as if it had received a fatal
// signal or tripped a hardware exception. ARMOR self-checks use it to
// "kill themselves" when an assertion fires.
func (p *Proc) Crash(reason string) {
	panic(procUnwind{code: 134, reason: reason})
}

// Hang suspends the calling process indefinitely, modelling an error that
// sends the process into a tight loop or a deadlock: it stays in the
// process table but stops making progress and stops responding to
// messages. Only Kernel.Kill (recovery) or Kernel.Resume ends the hang.
func (p *Proc) Hang() {
	p.suspended = true
	p.state = stateWaiting
	p.park()
}
