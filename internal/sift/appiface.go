package sift

import (
	"math"
	"slices"
	"time"

	"reesift/internal/core"
	"reesift/internal/memsim"
	"reesift/internal/sim"
)

// AppLauncher is an application entry point: the body of one MPI rank.
type AppLauncher func(ac *AppContext)

// AppSpec describes an application submission.
type AppSpec struct {
	ID    AppID
	Name  string
	Ranks int
	// Nodes assigns a hostname per rank (cycled if shorter).
	Nodes []string
	// Launcher is the rank body.
	Launcher AppLauncher
	// PIPeriod is the progress-indicator period announced to the
	// Execution ARMORs (20 s for the texture analysis program: it
	// cannot be checked more often because each FFT filter runs that
	// long).
	PIPeriod time.Duration
	// PICreateDelay defers progress-indicator creation past
	// application startup; the paper's OTIS runs were vulnerable to
	// hangs injected before the indicators existed.
	PICreateDelay time.Duration
	// MPIStartTimeout bounds how long rank 0 waits for the other ranks
	// to join the world before aborting the application.
	MPIStartTimeout time.Duration
	// MemProfile, if non-nil, gives application processes a simulated
	// memory image for register/text injection.
	MemProfile *memsim.Profile
	// Standalone runs the application without the SIFT environment:
	// the SIFT interface calls become no-ops. It provides the paper's
	// "Baseline No SIFT" measurement (Table 3).
	Standalone bool
	// InterruptPI selects the interrupt-driven hang detection design
	// discussed in Section 5.1: each progress indicator resets a
	// watchdog in the Execution ARMOR, so hangs are detected within one
	// period instead of up to two — at the cost of coupling the
	// updating and checking paths.
	InterruptPI bool
}

// AppContext is the per-process runtime handed to an application rank: the
// paper's "SIFT interface" (progress indicators, exit notification)
// plus process plumbing (attachment, message demultiplexing) that the MPI
// layer shares.
type AppContext struct {
	Proc *sim.Proc
	Env  *Environment
	App  *AppSpec
	Rank int
	// Restart is how many times the application has been restarted.
	Restart int

	// AID is this process's pseudo-ARMOR address.
	AID core.AID
	// ExecAID is the local Execution ARMOR.
	ExecAID core.AID

	node      string
	daemonPID sim.PID
	seq       uint64
	// stash holds what arrived while the process waited for something
	// else, for a later RecvMatch; see stashMsg for what it keeps.
	stash []sim.Msg
	// chanOpen is set once WaitChannelOpen has seen the ChannelOpen.
	chanOpen bool
	// progress is this rank's progress-indicator header, boxed once and
	// shared by every update; the counter travels in the event itself.
	progress *Progress
	// attach is what Attach sends the local daemon, by pointer.
	attach LocalAttach

	// Mem is the simulated memory image (register/text injection), nil
	// when the application is not a target.
	Mem *memsim.Memory
	// Corrupted is set when an activated data error should perturb the
	// application's numeric heap; the application checks and applies it
	// at its next compute step.
	Corrupted bool

	// heapF64 and heapInt are the application's registered dynamic
	// data: the real float64 matrices and the integer size/index fields
	// that the heap injector (Table 10) flips bits in.
	heapF64 []HeapF64
	heapInt []HeapInt
}

// reset readies ac for p, the process of one rank of app: a new context,
// or the one a dead incarnation of the rank left, whose stash and heap
// registrations are emptied, keeping their arrays, and whose progress
// header, the rank's, is kept.
func (ac *AppContext) reset(p *sim.Proc, e *Environment, app *AppSpec, rank, restart int, node string, mem *memsim.Memory) {
	clear(ac.stash)
	clear(ac.heapF64)
	clear(ac.heapInt)
	aid := AIDApp(app.ID, rank)
	*ac = AppContext{
		Proc:      p,
		Env:       e,
		App:       app,
		Rank:      rank,
		Restart:   restart,
		AID:       aid,
		ExecAID:   AIDExec(app.ID, rank),
		node:      node,
		daemonPID: e.daemonPID[node],
		stash:     ac.stash[:0],
		progress:  ac.progress,
		attach:    LocalAttach{ID: aid},
		Mem:       mem,
		heapF64:   ac.heapF64[:0],
		heapInt:   ac.heapInt[:0],
	}
}

// HeapF64 names a float64 region of application heap data: the slice
// variable at P, which the program reads at its next step. The region is
// copy-on-write, because the slice may share its backing array with a
// buffer the program does not own (a memoized reference, a received MPI
// payload, a blob on the shared FS): a flip gives the program a private
// copy and flips that.
type HeapF64 struct {
	Name string
	P    *[]float64
}

// HeapInt names an integer field of application heap data (sizes and
// indices — the fields whose corruption crashes rather than perturbs).
type HeapInt struct {
	Name string
	P    *int
}

// RegisterHeapF64 exposes the float64 slice *p for heap injection. p must
// point at the variable the program later reads, so a flip is seen there.
// The backing array of *p is never written: see HeapF64.
func (ac *AppContext) RegisterHeapF64(name string, p *[]float64) {
	ac.heapF64 = append(ac.heapF64, HeapF64{Name: name, P: p})
}

// FlipHeapF64 flips bit (0–63) of element slot of the registered float
// regions, counted through the regions in registration order. It first
// points the program's variable at a private copy of the region. A slot
// past the last region is ignored.
func (ac *AppContext) FlipHeapF64(slot int, bit uint) {
	for i := range ac.heapF64 {
		reg := &ac.heapF64[i]
		if slot >= len(*reg.P) {
			slot -= len(*reg.P)
			continue
		}
		data := slices.Clone(*reg.P)
		*reg.P = data
		data[slot] = math.Float64frombits(memsim.FlipBit(math.Float64bits(data[slot]), bit))
		return
	}
}

// RegisterHeapInt exposes an integer field for heap injection.
func (ac *AppContext) RegisterHeapInt(name string, p *int) {
	ac.heapInt = append(ac.heapInt, HeapInt{Name: name, P: p})
}

// HeapFloats returns the registered float regions.
func (ac *AppContext) HeapFloats() []HeapF64 { return ac.heapF64 }

// HeapInts returns the registered integer fields.
func (ac *AppContext) HeapInts() []HeapInt { return ac.heapInt }

// Process returns the simulated process (it implements mpi.Conn together
// with RecvMatch).
func (ac *AppContext) Process() *sim.Proc { return ac.Proc }

// Attach registers the process with its local daemon so envelopes
// addressed to its pseudo-AID arrive (the one-way channel of Section 3.2
// plus the return path for acknowledgments).
func (ac *AppContext) Attach() {
	if ac.App.Standalone {
		return
	}
	ac.Proc.Send(ac.daemon(), &ac.attach)
}

// daemon resolves the local daemon's current process address. With
// EnvConfig.DaemonRebind, a process that outlived its daemon (boot-agent
// reinstall after a node restart) — or started before the reinstall
// landed, binding the dead incarnation's address at spawn — re-attaches
// to the fresh daemon so acknowledgments route back; without the rebind
// every send from such a process disappears into the dead daemon and
// the rank wedges forever.
func (ac *AppContext) daemon() sim.PID {
	if !ac.Env.cfg.DaemonRebind {
		return ac.daemonPID
	}
	if cur, ok := ac.Env.daemonPID[ac.node]; ok && cur != ac.daemonPID {
		ac.daemonPID = cur
		ac.Proc.Send(cur, &ac.attach)
	}
	return ac.daemonPID
}

// Step models one unit of application work for the fault injectors: it
// applies any activated register/text error. Crash and hang manifestations
// take effect immediately; data corruption latches into Corrupted for the
// numeric kernels to fold in.
func (ac *AppContext) Step() {
	if ac.Mem == nil {
		return
	}
	switch ac.Mem.Step() {
	case memsim.OutcomeNone:
	case memsim.OutcomeSegfault:
		ac.Proc.Crash(core.ReasonSegfault)
	case memsim.OutcomeIllegalInstr:
		ac.Proc.Crash(core.ReasonIllegal)
	case memsim.OutcomeHang:
		ac.Proc.Hang()
	default:
		ac.Corrupted = true
	}
}

// sendReliableBlocking transmits an event to dst and blocks until the
// acknowledgment arrives, retransmitting every two seconds. This blocking
// is load-bearing for the paper's correlated failures: an application
// trying to reach a recovering Execution ARMOR blocks here until the ARMOR
// is back.
func (ac *AppContext) sendReliableBlocking(dst core.AID, ev core.Event) {
	if ac.App.Standalone {
		return
	}
	ac.seq++
	env := core.Envelope{Src: ac.AID, Dst: dst, Seq: ac.seq, Event: ev}
	for {
		// Boxed per attempt from the cluster's free list: the hops
		// mutate what travels, and a retransmission must start from
		// the pristine envelope. The box is the network's from here.
		ac.Proc.Send(ac.daemon(), ac.Env.boxes.Box(env))
		if waitAck(ac.Proc, &ac.Env.boxes, ac.stashMsg, dst, env.Seq, 2*time.Second) {
			return
		}
	}
}

// waitAck waits on p for an ack of (from, seq), which it frees, and hands
// every other message to stash, the caller's rule for what to keep. It is
// the blocking half of both the SCC's and an application's reliable send.
func waitAck(p *sim.Proc, boxes *core.Boxes, stash func(sim.Msg), from core.AID, seq uint64, timeout time.Duration) bool {
	deadline := p.Now() + timeout
	for {
		remain := deadline - p.Now()
		if remain <= 0 {
			return false
		}
		m, ok := p.RecvTimeout(remain)
		if !ok {
			return false
		}
		if env, ok := m.Payload.(*core.Envelope); ok && env.Ack && env.Src == from && env.AckSeq == seq {
			boxes.Free(env)
			return true
		}
		stash(m)
	}
}

// stashMsg keeps m for a later RecvMatch, unless nothing could ever
// consume it. An application consumes envelopes in only two ways: as acks
// (waitAck) and as the one ChannelOpen that WaitChannelOpen waits for. So
// the stash keeps an envelope only while it is a ChannelOpen and the
// channel is not yet open, and frees every other envelope. Other messages
// (MPI traffic) are always kept.
func (ac *AppContext) stashMsg(m sim.Msg) {
	if env, ok := m.Payload.(*core.Envelope); ok && (ac.chanOpen || !isChannelOpen(m)) {
		ac.Env.boxes.Free(env)
		return
	}
	ac.stash = append(ac.stash, m)
}

// RecvMatch returns the first pending or arriving message satisfying pred,
// waiting up to timeout. Non-matching arrivals are stashed, preserving
// order, under the stash rule of stashMsg: an envelope that is not a
// ChannelOpen awaited by WaitChannelOpen is dropped, so pred never sees
// one later. Acks arriving here are dropped too.
func (ac *AppContext) RecvMatch(timeout time.Duration, pred func(sim.Msg) bool) (sim.Msg, bool) {
	for i, m := range ac.stash {
		if pred(m) {
			ac.stash = append(ac.stash[:i], ac.stash[i+1:]...)
			return m, true
		}
	}
	deadline := ac.Proc.Now() + timeout
	for {
		remain := deadline - ac.Proc.Now()
		if remain <= 0 {
			return sim.Msg{}, false
		}
		m, ok := ac.Proc.RecvTimeout(remain)
		if !ok {
			return sim.Msg{}, false
		}
		// Acks arriving outside a blocking send are stale
		// retransmission acks; drop them.
		if env, ok := m.Payload.(*core.Envelope); ok && env.Ack {
			ac.Env.boxes.Free(env)
			continue
		}
		if pred(m) {
			return m, true
		}
		ac.stashMsg(m)
	}
}

// PICreate announces the progress indicator to the local Execution ARMOR
// ("the application must tell the Execution ARMOR at what frequency to
// check for progress indicator updates").
func (ac *AppContext) PICreate(period time.Duration) {
	ac.sendReliableBlocking(ac.ExecAID, PICreate{AppID: ac.App.ID, Rank: ac.Rank, Period: period}.Event())
}

// Progress sends one progress-indicator update. It blocks until the
// Execution ARMOR acknowledges it. The update carries the rank's shared
// Progress header and the counter inline, so it allocates nothing.
func (ac *AppContext) Progress(counter uint64) {
	if ac.progress == nil {
		ac.progress = &Progress{AppID: ac.App.ID, Rank: ac.Rank}
	}
	ac.sendReliableBlocking(ac.ExecAID, core.Event{Kind: EvProgress, Data: ac.progress, N: counter})
}

// NotifyExiting tells the Execution ARMOR the process is terminating
// normally, so the exit is not misread as a crash (Section 3.3).
func (ac *AppContext) NotifyExiting() {
	ac.sendReliableBlocking(ac.ExecAID, AppExiting{AppID: ac.App.ID, Rank: ac.Rank}.Event())
}

// SendPIDs reports the remotely launched ranks' PIDs to the FTM (Table 1,
// step 6).
func (ac *AppContext) SendPIDs(pids map[int]sim.PID) {
	ac.sendReliableBlocking(AIDFTM, core.Event{Kind: EvAppPIDs, Data: AppPIDs{AppID: ac.App.ID, PIDs: pids}})
}

// WaitChannelOpen blocks a non-rank-0 process until its Execution ARMOR
// establishes the monitoring channel (Table 1, step 7). It returns false
// on timeout — the blocked-slave condition of Figure 8. Once it has
// returned true the channel stays open: later calls return true at once,
// and the ARMOR's further ChannelOpen resends are dropped on arrival.
func (ac *AppContext) WaitChannelOpen(timeout time.Duration) bool {
	if ac.App.Standalone || ac.chanOpen {
		return true
	}
	_, ac.chanOpen = ac.RecvMatch(timeout, isChannelOpen)
	return ac.chanOpen
}

// isChannelOpen reports whether m is the Execution ARMOR's ChannelOpen.
func isChannelOpen(m sim.Msg) bool {
	env, isEnv := m.Payload.(*core.Envelope)
	if !isEnv {
		return false
	}
	_, isOpen := ChannelOpenOf(env.Event)
	return isOpen
}

// SpawnRank launches another rank of the same application on the given
// node (the MPI implementation's remote-launch protocol, Table 1 step 5).
// The new process is not a child of anyone relevant: its Execution ARMOR
// watches it through the process table.
func (ac *AppContext) SpawnRank(node string, rank int) sim.PID {
	return ac.Env.launchApp(nil, ac.App, rank, ac.Restart)
}

// SharedFS returns the cluster-wide stable storage (application input,
// output, and status files).
func (ac *AppContext) SharedFS() *sim.FS { return ac.Env.K.SharedFS() }
