package sim

import "time"

// Msg is a message delivered to a process inbox. Every wake source in the
// simulation is unified into the inbox — network messages, child-exit
// notifications (the waitpid analogue), and timer expirations — so a
// process body is a single-threaded event loop, mirroring the event-driven
// structure of the paper's ARMOR processes.
type Msg struct {
	From    PID           // sending process, or NoPID for kernel events
	SentAt  time.Duration // virtual send time
	Payload interface{}
}

// ChildExit is delivered to a parent's inbox, as a *ChildExit, when one of
// its children terminates. It is the simulation's waitpid: the paper's
// daemons and Execution ARMORs detect crash failures of their children
// through the operating system this way, with effectively zero latency.
// The record belongs to the dead child and never changes, so the parent
// may keep the pointer but must not write through it.
type ChildExit struct {
	Child PID
	Name  string
	// Code is the exit code: 0 for a normal exit, nonzero otherwise.
	Code int
	// Reason describes abnormal termination ("killed: SIGINT",
	// "segmentation fault", "assertion", ...). Empty for normal exits.
	Reason string
}

// NodeDown is delivered to watchers registered via Kernel.WatchNode when a
// node crashes. The experiment controller uses it; SIFT processes must
// discover node failures through heartbeats like in the paper.
type NodeDown struct {
	Node string
}

// NodeUp is delivered to watchers registered via Kernel.WatchNode when a
// crashed node restarts. It stands in for the out-of-band power-on signal
// a rebooting board raises toward the trusted controller: the SCC uses it
// to start the node's boot agent, which reinstalls the daemon.
type NodeUp struct {
	Node string
}
