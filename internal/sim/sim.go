// Package sim implements a deterministic discrete-event simulation kernel
// that emulates a small cluster of nodes running communicating processes.
//
// The kernel stands in for the paper's REE testbed (PowerPC 750 boards
// running LynxOS connected by 100 Mbps Ethernet). Every observable that the
// SIFT environment's detection and recovery machinery depends on is
// reproduced here:
//
//   - processes with parent/child relationships and waitpid-style
//     child-exit notification (crash detection),
//   - SIGINT-style kill (clean crash) and SIGSTOP-style suspend (clean
//     hang: the process stays in the process table but stops responding),
//   - per-node process tables,
//   - message passing with configurable local and remote latency,
//   - per-node RAM disks emulating local nonvolatile memory and a shared
//     remote file system emulating the testbed's Sun workstation storage,
//   - whole-node crashes.
//
// Time is virtual: a simulated 76-second application run completes in
// milliseconds of wall clock, which is what makes the paper's 28,000-run
// injection campaigns tractable.
//
// Determinism: exactly one process runs at a time, the event queue is
// ordered by (time, sequence number), and all randomness flows from a
// single seeded source. A simulation is therefore a pure function of
// (seed, configuration).
//
// Processes come in two kinds with one inbox, one ready queue and one set
// of wakeups. A body process runs a function on a pooled coroutine; the
// kernel resumes it and regains control only when it parks or exits. A
// handler process (the SIFT daemons and ARMORs) has no coroutine: the
// kernel calls its Handle method for each inbox message on the goroutine
// running Kernel.Run, draining the inbox in one dispatch exactly as a Recv
// loop does, so both kinds see the same (time, sequence) order. A handler
// that must block for one message borrows a pooled coroutine for that
// message only (Proc.Block). Running the ARMORs this way, after the
// daemons, cut chaos-simday's round CPU time by a further 22% (README,
// Performance).
//
// The steady-state hot path — Schedule/Reschedule/fire, Send/Recv, and
// sleep/timeout wakeups — is allocation-free: event records are pooled on
// a kernel free list (generation-stamped against stale handles), the
// ready queue and per-process inboxes are ring buffers, and the process
// table is a dense slice indexed by PID (PIDs are monotonic and never
// reused).
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"reesift/internal/trace"
)

// PID identifies a process in the simulation. PIDs are unique for the
// lifetime of a kernel and are never reused.
type PID int

// NoPID is the zero PID; it never names a live process.
const NoPID PID = 0

// Config carries kernel-wide tunables.
type Config struct {
	// Seed seeds the kernel's random source. Runs with equal seeds and
	// equal workloads produce identical schedules.
	Seed int64
	// LocalLatency is the message delay between processes on one node.
	LocalLatency time.Duration
	// RemoteLatency is the message delay between processes on different
	// nodes (the testbed's Ethernet hop).
	RemoteLatency time.Duration
	// LatencyJitter, if positive, adds a uniform random delay in
	// [0, LatencyJitter) to every message.
	LatencyJitter time.Duration
}

// DefaultConfig returns the latency model used by the experiments: 100 us
// local delivery and 1 ms cross-node delivery with 200 us of jitter,
// roughly matching a lightly loaded 100 Mbps Ethernet with small messages.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		LocalLatency:  100 * time.Microsecond,
		RemoteLatency: time.Millisecond,
		LatencyJitter: 200 * time.Microsecond,
	}
}

// Kernel is the discrete-event scheduler. All methods must be called either
// from the goroutine that called Run (before or after Run, or from event
// callbacks) or from the body of the currently running process; a process
// coroutine runs only while the kernel waits for it, so the two never
// overlap and need no locks.
type Kernel struct {
	cfg Config

	now     time.Duration
	seq     uint64
	events  eventHeap
	free    []*event // recycled event records
	fired   uint64   // total events fired (throughput accounting)
	stopped bool

	// procs is the dense process table, indexed by PID. PIDs start at 1
	// and are never reused, so index 0 stays nil and dead processes keep
	// their slot (exactly the retention the former map had).
	procs   []*Proc
	nextPID PID

	nodes    map[string]*Node
	nodeList []*Node

	rng      *rand.Rand
	sharedFS *FS

	// Message fault model (see netfault.go). The dedicated RNG keeps
	// fault draws out of the kernel's main random stream.
	netFault *NetFault
	netRNG   *rand.Rand
	netStats NetFaultStats

	// nodeWatchers receive a NodeDown message when the named node
	// crashes (the experiment controller's uplink; SIFT processes must
	// discover node failures through heartbeats like in the paper).
	nodeWatchers map[string][]PID

	// ready is a ring buffer of runnable processes (head/len indices, no
	// reslicing, so the backing array never leaks a dead prefix).
	ready     []*Proc
	readyHead int
	readyLen  int

	// inboxes holds the emptied inbox rings of dead processes; spawn
	// hands them to new ones.
	inboxes [][]Msg

	// downSpawn is the record a spawn on a down node panics with.
	downSpawn downNodeSpawn

	sink    *trace.Recorder
	traceOn bool // cached sink.Enabled()

	liveProcs int
	msgsSent  uint64
}

// NewKernel creates a kernel with no nodes or processes.
func NewKernel(cfg Config) *Kernel { return new(Kernel).Reset(cfg) }

// Reset re-initialises k for a new simulation built from cfg, and returns
// it. It is NewKernel's initialiser; a campaign worker also calls it on
// the kernel of a finished trial, so the next trial reuses its storage:
//
//   - pending events go back to the event free list, which is kept;
//   - the process table, the ready ring and the node list are emptied,
//     keeping their arrays; AddNode reuses the nodes, their process
//     tables and RAM disks emptied, and spawn reuses dead processes'
//     inbox rings; an emptied file system keeps its files' arrays for
//     their paths' next Write;
//   - the random sources are reseeded in place, which gives the stream a
//     new source seeded alike would;
//   - the clock, the counters, the stop flag, the node watchers, the
//     shared file system, the message fault model and the trace sink
//     start over.
//
// Processes are always new structs. Reset must not be called while a
// process is alive: Shutdown first.
func (k *Kernel) Reset(cfg Config) *Kernel {
	if k.liveProcs > 0 {
		panic(fmt.Sprintf("sim: Reset of a kernel with %d live processes", k.liveProcs))
	}
	if cfg.LocalLatency <= 0 {
		cfg.LocalLatency = 100 * time.Microsecond
	}
	if cfg.RemoteLatency <= 0 {
		cfg.RemoteLatency = time.Millisecond
	}
	k.cfg = cfg
	k.now, k.seq, k.fired, k.stopped = 0, 0, 0, false
	for _, e := range k.events {
		e.index = -1
		k.recycle(e)
	}
	clear(k.events)
	k.events = k.events[:0]
	if k.procs == nil {
		k.procs = make([]*Proc, 1, 64) // index 0 = NoPID
	}
	clear(k.procs)
	k.procs = k.procs[:1]
	k.nextPID = 1
	if k.nodes == nil {
		k.nodes = make(map[string]*Node)
	}
	clear(k.nodes)
	for _, n := range k.nodeList {
		clear(n.procs)
		n.ramDisk.reset()
	}
	k.nodeList = k.nodeList[:0]
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		k.rng.Seed(cfg.Seed)
	}
	if k.sharedFS == nil {
		k.sharedFS = NewFS()
	}
	k.sharedFS.reset()
	k.netFault, k.netStats = nil, NetFaultStats{}
	clear(k.nodeWatchers)
	clear(k.ready)
	k.readyHead, k.readyLen = 0, 0
	k.sink, k.traceOn = nil, false
	k.liveProcs, k.msgsSent = 0, 0
	k.downSpawn = downNodeSpawn{}
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand exposes the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// SharedFS returns the cluster-wide remote file system (the testbed's Sun
// workstation disk holding executables, input data, and output data).
func (k *Kernel) SharedFS() *FS { return k.sharedFS }

// EventsFired reports how many events have fired since kernel creation —
// the numerator of the scale scenario's events/sec throughput metric.
func (k *Kernel) EventsFired() uint64 { return k.fired }

// SetSink installs the trial's trace recorder; nil turns tracing off.
func (k *Kernel) SetSink(r *trace.Recorder) {
	k.sink = r
	k.traceOn = r.Enabled()
}

// TraceOn reports whether a trace recorder is installed. Hot paths
// guard their Emit calls with it so record construction never happens
// on traced-off runs; the traceguard analyzer enforces the guard at
// every call site.
func (k *Kernel) TraceOn() bool { return k.traceOn }

// Emit records one structured trace event, stamping the current virtual
// time when the record carries none. Callers must guard with TraceOn.
func (k *Kernel) Emit(rec trace.Record) {
	if !k.sink.Enabled() {
		return
	}
	if rec.At == 0 {
		rec.At = k.now
	}
	k.sink.Emit(rec)
}

// MessagesSent reports how many inter-process messages have left Send
// since kernel creation (dropped-by-fault messages included).
func (k *Kernel) MessagesSent() uint64 { return k.msgsSent }

// QueueDepth reports the current size of the pending event heap — the
// simulation analogue of scheduler backlog, sampled by the metrics
// registry.
func (k *Kernel) QueueDepth() int { return len(k.events) }

// AddNode creates a node with the given name. Node names must be unique.
func (k *Kernel) AddNode(name string) *Node {
	if _, ok := k.nodes[name]; ok {
		panic(fmt.Sprintf("sim: duplicate node %q", name))
	}
	var n *Node
	if i := len(k.nodeList); i < cap(k.nodeList) {
		n = k.nodeList[:i+1][i] // a node Reset kept, already emptied
	}
	if n == nil {
		n = &Node{kernel: k, procs: make(map[PID]*Proc), ramDisk: NewFS()}
	}
	n.name, n.up = name, true
	k.nodes[name] = n
	k.nodeList = append(k.nodeList, n)
	return n
}

// Node returns the named node, or nil.
func (k *Kernel) Node(name string) *Node { return k.nodes[name] }

// Nodes returns all nodes in creation order.
func (k *Kernel) Nodes() []*Node { return k.nodeList }

// proc returns the process table entry for pid, or nil.
func (k *Kernel) proc(pid PID) *Proc {
	if pid <= 0 || int(pid) >= len(k.procs) {
		return nil
	}
	return k.procs[pid]
}

// allocEvent pops a recycled event record off the free list, or makes a
// fresh one. Steady state recycles every record, so the event path stops
// allocating once the pool has warmed up.
//
//reesift:noalloc
func (k *Kernel) allocEvent() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{k: k}
}

// recycle returns a record to the free list, bumping its generation so
// stale handles to the fired/cancelled event can never touch it again.
//
//reesift:noalloc
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.proc = nil
	e.msg = Msg{}
	k.free = append(k.free, e)
}

// newEvent allocates and stamps a record at d from now. The caller fills
// in the kind fields and pushes it.
//
//reesift:noalloc
func (k *Kernel) newEvent(d time.Duration) *event {
	if d < 0 {
		d = 0
	}
	e := k.allocEvent()
	e.at = k.now + d
	e.seq = k.seq
	k.seq++
	return e
}

// Schedule registers fn to run in kernel context at the given delay from
// now. It returns a handle that can cancel or reschedule the event.
//
//reesift:noalloc
func (k *Kernel) Schedule(d time.Duration, fn func()) Event {
	e := k.newEvent(d)
	e.kind = evFunc
	e.fn = fn
	k.events.push(e)
	return Event{e: e, gen: e.gen}
}

// scheduleDeliver arranges for m to be delivered to dst's inbox after d,
// without a closure: the pooled record carries the destination and the
// message.
//
//reesift:noalloc
func (k *Kernel) scheduleDeliver(d time.Duration, dst PID, m Msg) Event {
	e := k.newEvent(d)
	e.kind = evDeliver
	e.dst = dst
	e.msg = m
	k.events.push(e)
	return Event{e: e, gen: e.gen}
}

// scheduleWake arranges to wake p from a Sleep/Yield park after d, if it
// is still in the same wait (tok matches its waitSeq).
//
//reesift:noalloc
func (k *Kernel) scheduleWake(d time.Duration, p *Proc, tok uint64) {
	e := k.newEvent(d)
	e.kind = evWake
	e.proc = p
	e.tok = tok
	k.events.push(e)
}

// scheduleTimeout arms a RecvTimeout expiry for p's current wait.
//
//reesift:noalloc
func (k *Kernel) scheduleTimeout(d time.Duration, p *Proc, tok uint64) Event {
	e := k.newEvent(d)
	e.kind = evTimeout
	e.proc = p
	e.tok = tok
	k.events.push(e)
	return Event{e: e, gen: e.gen}
}

// fire dispatches one popped event by kind and recycles its record. The
// fields are copied out first so the record can be reused by anything
// the callback schedules.
//
//reesift:noalloc
func (k *Kernel) fire(e *event) {
	k.fired++
	switch e.kind {
	case evFunc:
		fn := e.fn
		k.recycle(e)
		fn()
	case evWake:
		p, tok := e.proc, e.tok
		k.recycle(e)
		if p.waitSeq == tok && p.state == stateWaiting {
			k.makeReady(p)
		}
	case evDeliver:
		dst, m := e.dst, e.msg
		k.recycle(e)
		k.deliver(dst, m)
	case evTimeout:
		p, tok := e.proc, e.tok
		k.recycle(e)
		if p.waitSeq != tok || p.inboxLen > 0 {
			return
		}
		if p.state == stateWaiting && p.recvWaiting {
			p.timedOut = true
			k.makeReady(p)
		} else if p.suspended {
			// Expired while hung: remember so a resumed process sees
			// the timeout rather than blocking forever.
			p.timedOut = true
			p.pendingWake = true
		}
	}
}

// Stop halts the kernel loop after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// ClearStop re-arms a kernel halted by Stop so a later Run call can
// resume the simulation (the stop flag otherwise latches).
func (k *Kernel) ClearStop() { k.stopped = false }

// Run executes events until the event queue drains, Stop is called, or
// virtual time would exceed limit. It returns the virtual time at which the
// simulation stopped.
//
//reesift:noalloc
func (k *Kernel) Run(limit time.Duration) time.Duration {
	for {
		k.drainReady()
		if k.stopped {
			break
		}
		next, ok := k.events.peek()
		if !ok {
			break
		}
		if next.at > limit {
			// Leave it queued so a later Run with a larger limit resumes.
			k.now = limit
			break
		}
		ev, _ := k.events.pop()
		if ev.at > k.now {
			k.now = ev.at
		}
		k.fire(ev)
	}
	return k.now
}

// LiveProcs reports how many processes are currently alive (running,
// ready, waiting, or suspended).
func (k *Kernel) LiveProcs() int { return k.liveProcs }

// Shutdown kills every remaining process and runs each to the end of its
// unwind, which returns its coroutine to the process-wide pool. Call it
// after Run when a simulation is abandoned mid-flight: without it, every
// live process keeps a parked coroutine, and its goroutine, forever.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if p != nil && p.state != stateDead {
			k.Kill(p.pid, "kernel shutdown")
		}
	}
	k.drainReady()
}

// pushReady appends p to the ready ring, growing (and linearizing) the
// ring when full.
//
//reesift:noalloc
func (k *Kernel) pushReady(p *Proc) {
	if k.readyLen == len(k.ready) {
		grown := make([]*Proc, max(8, 2*len(k.ready)))
		for i := 0; i < k.readyLen; i++ {
			grown[i] = k.ready[(k.readyHead+i)%len(k.ready)]
		}
		k.ready = grown
		k.readyHead = 0
	}
	k.ready[(k.readyHead+k.readyLen)%len(k.ready)] = p
	k.readyLen++
}

// popReady removes and returns the oldest ready process.
//
//reesift:noalloc
func (k *Kernel) popReady() (*Proc, bool) {
	if k.readyLen == 0 {
		return nil, false
	}
	p := k.ready[k.readyHead]
	k.ready[k.readyHead] = nil
	k.readyHead = (k.readyHead + 1) % len(k.ready)
	k.readyLen--
	return p, true
}

//reesift:noalloc
func (k *Kernel) drainReady() {
	for {
		p, ok := k.popReady()
		if !ok {
			return
		}
		if p.state != stateReady {
			continue
		}
		k.dispatch(p)
	}
}

// dispatch runs p until it parks, exits, or is unwound. A body process, or
// a handler process inside a message set aside by Block, resumes its
// coroutine; a handler process otherwise runs inline (runHandler). A
// coroutine that has fully unwound goes back to the pool from here, never
// from inside itself: once released, another kernel may resume it at
// once. A body that ends in runtime.Goexit or a panic escaping main
// re-raises it here, through next, and its coroutine is dropped.
//
//reesift:noalloc
func (k *Kernel) dispatch(p *Proc) {
	p.state = stateRunning
	if p.co == nil && p.killed {
		// A handler process killed while parked between messages.
		k.finalize(p, 137, p.exit.Reason)
		return
	}
	for {
		if c := p.co; c != nil {
			c.next()
			if c.p != nil {
				return // parked on the coroutine
			}
			p.co = nil
			putCoro(c)
			if p.state != stateRunning {
				return // unwound to finalize
			}
			// A handler's blocking message returned: go on inline.
		}
		if !k.runHandler(p) {
			return
		}
	}
}

// makeReady marks p runnable. If p is suspended, the wakeup is deferred
// until Resume.
//
//reesift:noalloc
func (k *Kernel) makeReady(p *Proc) {
	if p.state == stateDead || p.state == stateReady || p.state == stateRunning {
		return
	}
	if p.suspended {
		p.pendingWake = true
		return
	}
	p.state = stateReady
	k.pushReady(p)
}

// latency computes the delivery delay between two nodes.
//
//reesift:noalloc
func (k *Kernel) latency(src, dst *Node) time.Duration {
	d := k.cfg.LocalLatency
	if src != dst {
		d = k.cfg.RemoteLatency
	}
	if k.cfg.LatencyJitter > 0 {
		d += time.Duration(k.rng.Int63n(int64(k.cfg.LatencyJitter)))
	}
	return d
}
