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

// Proc is a simulated operating-system process, of one of two kinds. A
// body process (Spawn) runs a function on a pooled coroutine, which the
// kernel resumes to run the process and which switches back to the kernel
// whenever the process parks. A handler process (SpawnHandler) has no
// coroutine: the kernel calls its Handler once per inbox message, inline,
// and parks it when the inbox is empty. Either way only one process
// executes at a time. All Proc methods below the "process context" marker
// must be called from the process's own body or handler.
type Proc struct {
	kernel *Kernel
	node   *Node
	pid    PID
	name   string
	parent PID

	state      procState
	killReason string

	// The flags share one word, which keeps a Proc in the 192-byte size
	// class.
	suspended   bool
	pendingWake bool
	killed      bool
	// recvWaiting is true only while the process is parked waiting for
	// inbox messages; message delivery wakes the process only then, so
	// arrivals cannot cut a Sleep short.
	recvWaiting bool
	// timedOut is set by an expired RecvTimeout timer.
	timedOut bool
	// started records that a handler process's Start has run.
	started bool
	// holding says Block has put the message being handled back at the
	// head of the inbox, for a borrowed coroutine.
	holding bool

	// inbox is a ring buffer (head/len indices) so receives stop
	// resliced-prefix churn and steady-state send/recv reuses one
	// backing array per process.
	inbox     []Msg
	inboxHead int
	inboxLen  int

	// co is the coroutine running the body, from Spawn until the body has
	// fully unwound. A handler process holds one only while it runs a
	// message set aside by Block.
	co *coro
	// h is a handler process's handler; nil for a body process.
	h Handler

	// waitSeq stamps each blocking wait so stale timer wakeups (a sleep
	// timer firing after the process has moved on to a different wait)
	// are ignored.
	waitSeq uint64

	exit ExitStatus

	// Extra is an arbitrary per-process annotation slot. The fault
	// injectors use it to attach simulated memory images to a process
	// without the kernel knowing about them.
	Extra interface{}

	body func(*Proc)
}

// pushMsg appends m to the inbox ring.
//
//reesift:noalloc
func (p *Proc) pushMsg(m Msg) {
	p.makeRoom()
	p.inbox[(p.inboxHead+p.inboxLen)%len(p.inbox)] = m
	p.inboxLen++
}

// unpopMsg puts m back at the head of the inbox ring.
//
//reesift:noalloc
func (p *Proc) unpopMsg(m Msg) {
	p.makeRoom()
	p.inboxHead = (p.inboxHead + len(p.inbox) - 1) % len(p.inbox)
	p.inbox[p.inboxHead] = m
	p.inboxLen++
}

// makeRoom grows (and linearizes) the inbox ring when it is full.
//
//reesift:noalloc
func (p *Proc) makeRoom() {
	if p.inboxLen == len(p.inbox) {
		grown := make([]Msg, max(8, 2*len(p.inbox)))
		for i := 0; i < p.inboxLen; i++ {
			grown[i] = p.inbox[(p.inboxHead+i)%len(p.inbox)]
		}
		p.inbox = grown
		p.inboxHead = 0
	}
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

// Handler is the body of a handler process. The kernel calls Start once,
// at the process's first dispatch, and then Handle for each inbox message
// in arrival order, on the goroutine running Kernel.Run: a delivery costs
// a method call, not a coroutine switch. Handle may Send, Spawn, arm
// timers, Exit or Crash, but it may not block; a message whose handling
// must Sleep or Recv goes to Proc.Block.
type Handler interface {
	Start(p *Proc)
	Handle(p *Proc, m Msg)
}

// procUnwind is panicked inside a process body to unwind its coroutine when
// the process exits or is killed.
type procUnwind struct {
	code   int
	reason string
}

// procHang is panicked by Hang inside an inline handler to abandon the
// message it is handling.
type procHang struct{}

// handlerMisuse is panicked when a handler process calls a method that
// needs a coroutine it does not have. It is a bug in the handler, not a
// fault of the simulated process, so it escapes Kernel.Run instead of
// ending the process.
type handlerMisuse string

func (e handlerMisuse) Error() string { return string(e) }

// exitStatus maps a panic that unwound a process to its exit status: Exit,
// Crash and a kill keep their codes, and anything else is the moral
// equivalent of a segmentation fault — the process crashes and the parent
// observes an abnormal exit. A handler misuse propagates.
func exitStatus(r any) (int, string) {
	switch u := r.(type) {
	case procUnwind:
		return u.code, u.reason
	case handlerMisuse:
		panic(u)
	}
	return 139, fmt.Sprintf("segmentation fault: %v", r)
}

// Spawn creates a process on node n whose body is fn. The process becomes
// runnable immediately (at the current virtual time). parent may be NoPID
// for top-level processes; otherwise the parent receives a ChildExit
// message when the process dies.
func (k *Kernel) Spawn(n *Node, name string, parent PID, fn func(*Proc)) PID {
	return k.spawn(n, name, parent, fn, nil)
}

// SpawnHandler creates a handler process on node n that runs h, and is
// otherwise like Spawn: the same inbox, wakeups, kill, suspend and exit
// notification.
func (k *Kernel) SpawnHandler(n *Node, name string, parent PID, h Handler) PID {
	return k.spawn(n, name, parent, nil, h)
}

func (k *Kernel) spawn(n *Node, name string, parent PID, fn func(*Proc), h Handler) PID {
	if !n.up {
		panic(fmt.Sprintf("sim: spawn %q on down node %q", name, n.name))
	}
	p := &Proc{
		kernel: k,
		node:   n,
		pid:    k.nextPID,
		name:   name,
		parent: parent,
		state:  stateNew,
		body:   fn,
		h:      h,
	}
	if i := len(k.inboxes) - 1; i >= 0 {
		p.inbox = k.inboxes[i]
		k.inboxes[i] = nil
		k.inboxes = k.inboxes[:i]
	}
	k.nextPID++
	k.procs = append(k.procs, p) // dense table: p.pid == len(k.procs)-1
	n.procs[p.pid] = p
	k.liveProcs++
	if h == nil {
		p.co = getCoro(p)
	}
	p.state = stateWaiting
	k.makeReady(p)
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindProcSpawn, Op: name, Node: n.name, PID: int64(p.pid)})
	}
	return p.pid
}

// main runs on the process's coroutine: a body from the first dispatch to
// finalize, or one message of a handler process set aside by Block, which
// ends in finalize only if it kills the process. Every exit, kill and
// crash unwinds to here.
func (p *Proc) main() {
	code, reason, handled := 0, "", false
	func() {
		defer func() {
			if r := recover(); r != nil {
				code, reason = exitStatus(r)
			}
		}()
		if p.h != nil {
			p.holding = false
			p.h.Handle(p, p.popMsg())
			handled = true
			return
		}
		if p.killed {
			panic(procUnwind{code: 137, reason: p.killReason})
		}
		p.body(p)
	}()
	if !handled {
		p.kernel.finalize(p, code, reason)
	}
}

// runHandler calls a handler process's Start on its first dispatch, then
// Handle for each inbox message, and parks the process, as Recv would,
// once the inbox is empty. It returns true, leaving the rest of the inbox,
// when Handle sets its message aside by Block: the caller runs it on the
// coroutine borrowed here.
//
//reesift:noalloc
func (k *Kernel) runHandler(p *Proc) bool {
	defer k.unwindHandler(p)
	p.recvWaiting = false
	if !p.started {
		p.started = true
		p.h.Start(p)
	}
	for p.inboxLen > 0 {
		p.h.Handle(p, p.popMsg())
		if p.holding {
			p.co = getCoro(p)
			return true
		}
	}
	p.waitSeq++
	p.recvWaiting = true
	p.state = stateWaiting
	return false
}

// unwindHandler ends an inline handler call that panicked: Hang parks the
// process with the rest of its inbox, and Exit, Crash or any other panic
// ends it. Nothing is recovered on a normal return or runtime.Goexit,
// which unwinds on through Kernel.Run.
func (k *Kernel) unwindHandler(p *Proc) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(procHang); ok {
		p.waitSeq++
		p.recvWaiting = true
		p.pendingWake = p.inboxLen > 0
		return
	}
	code, reason := exitStatus(r)
	k.finalize(p, code, reason)
}

// finalize tears down a dead process: removes it from the node table,
// notifies its parent if that is still alive, and gives its emptied inbox
// ring to the kernel for the next spawn. An orphan keeps running and
// keeps its dead parent's PID, which is never notified. Runs on the dying
// process's coroutine, as the last step of main, or in dispatch for a
// handler process.
func (k *Kernel) finalize(p *Proc, code int, reason string) {
	if p.state == stateDead {
		return
	}
	p.state = stateDead
	k.liveProcs--
	delete(p.node.procs, p.pid)
	p.exit = ExitStatus{Code: code, Reason: reason, At: k.now}
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindProcExit, Op: p.name, Node: p.node.name,
			PID: int64(p.pid), A: int64(code), Detail: reason})
	}
	if pp := k.proc(p.parent); pp != nil && pp.state != stateDead {
		k.deliver(p.parent, Msg{From: p.pid, SentAt: k.now, Payload: ChildExit{
			Child: p.pid, Name: p.name, Code: code, Reason: reason,
		}})
	}
	if p.inbox != nil {
		clear(p.inbox)
		k.inboxes = append(k.inboxes, p.inbox)
	}
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
	if p == nil || p.state != stateDead {
		return nil
	}
	return &p.exit
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

// mayBlock panics when p cannot park: a handler process has a coroutine
// only inside a message set aside by Block.
//
//reesift:noalloc
func (p *Proc) mayBlock(op string) {
	if p.co == nil {
		//reesift:allow noalloc -- misuse report: raised once, by a handler that blocks outside Block
		panic(handlerMisuse(fmt.Sprintf("sim: %s called by handler process %q (pid %d) outside a message set aside by Block", op, p.name, p.pid)))
	}
}

// Block sets m, the message Handle is handling, aside for a coroutine
// borrowed from the pool: when Handle returns, the kernel calls Handle(p,
// m) again on that coroutine, where the process may Sleep or Recv, and p
// takes no other message until that call returns. CanBlock tells the
// second call from the first. Only a handler process's inline Handle may
// call it, once per message.
//
//reesift:noalloc
func (p *Proc) Block(m Msg) {
	if p.h == nil || p.co != nil || p.holding {
		//reesift:allow noalloc -- misuse report: raised once, by a caller that is not an inline handler
		panic(handlerMisuse(fmt.Sprintf("sim: Block called by %q (pid %d), which is not a handler process handling a message inline", p.name, p.pid)))
	}
	p.unpopMsg(m)
	p.holding = true
}

// CanBlock reports whether the process may block: a body process always
// may, a handler process only inside a message set aside by Block.
func (p *Proc) CanBlock() bool { return p.co != nil }

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

// Sleep blocks the process for d of virtual time. It models computation as
// well as idle waiting; the texture-analysis filters "compute" by sleeping
// for their calibrated phase duration while the real (small) numeric
// kernels run instantaneously in wall-clock terms.
//
//reesift:noalloc
func (p *Proc) Sleep(d time.Duration) {
	p.mayBlock("Sleep")
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
	p.mayBlock("Yield")
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
	p.mayBlock("Recv")
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
	p.mayBlock("RecvTimeout")
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

// SpawnChildHandler starts a child handler process on the given node,
// reported to this process like a SpawnChild child.
func (p *Proc) SpawnChildHandler(n *Node, name string, h Handler) PID {
	return p.kernel.SpawnHandler(n, name, p.pid, h)
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
// In an inline handler, Hang abandons the message being handled, and
// Resume continues with the next one.
func (p *Proc) Hang() {
	p.suspended = true
	p.state = stateWaiting
	if p.co == nil && p.h != nil {
		panic(procHang{})
	}
	p.park()
}
