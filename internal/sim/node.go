package sim

import (
	"slices"

	"reesift/internal/trace"
)

// Node models one testbed board/CPU: a process table, a RAM disk standing
// in for the 1-2 MB of local nonvolatile memory the paper set aside for
// checkpoints, and an up/down flag. Crashing a node kills every process on
// it; its RAM disk contents survive (nonvolatile) but are unreachable while
// the node is down.
type Node struct {
	kernel  *Kernel
	name    string
	up      bool
	procs   map[PID]*Proc
	ramDisk *FS

	// failure is the kill reason of a crash, "node <name> failure", kept
	// while the node's name stays the same; victims is CrashNode's
	// reusable list of the processes it kills.
	failure string
	victims []PID
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Up reports whether the node is operational.
func (n *Node) Up() bool { return n.up }

// RAMDisk returns the node-local nonvolatile store.
func (n *Node) RAMDisk() *FS { return n.ramDisk }

// Procs returns the PIDs of live processes on the node, sorted.
func (n *Node) Procs() []PID { return n.appendProcs(make([]PID, 0, len(n.procs))) }

// appendProcs appends the PIDs of the live processes on the node to pids,
// sorted.
func (n *Node) appendProcs(pids []PID) []PID {
	for pid := range n.procs {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	return pids
}

// failureReason returns "node <name> failure", reusing the string an
// earlier crash built when the name is the same.
func (n *Node) failureReason() string {
	var buf [64]byte
	reason := append(append(append(buf[:0], "node "...), n.name...), " failure"...)
	if n.failure != string(reason) {
		n.failure = string(reason)
	}
	return n.failure
}

// WatchNode registers a process to receive a NodeDown message when the
// named node crashes and a NodeUp message when it later restarts. It is
// the trusted controller's uplink: SIFT processes must discover node
// failures through heartbeats like in the paper, but the injection
// harness and the SCC (which commands the reboot sequence) are allowed
// to observe the transitions directly. Watching an unknown node is a
// no-op.
func (k *Kernel) WatchNode(name string, watcher PID) {
	if k.nodes[name] == nil {
		return
	}
	if k.nodeWatchers == nil {
		k.nodeWatchers = make(map[string][]PID)
	}
	k.nodeWatchers[name] = append(k.nodeWatchers[name], watcher)
}

// CrashNode fails a node: every process on it dies (without parent
// notification reaching processes on the same node, naturally, since they
// are dead too) and future message delivery to or from the node drops.
// Watchers registered with WatchNode are notified with a NodeDown
// message.
func (k *Kernel) CrashNode(name string) {
	n := k.nodes[name]
	if n == nil || !n.up {
		return
	}
	n.up = false
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindNodeDown, Node: name, A: int64(len(n.procs))})
	}
	reason := n.failureReason()
	n.victims = n.appendProcs(n.victims[:0])
	for _, pid := range n.victims {
		p := n.procs[pid]
		if p == nil || p.state == stateDead {
			continue
		}
		p.killed = true
		p.exit.Code, p.exit.Reason = 137, reason
		p.suspended = false
		if p.state == stateWaiting {
			p.state = stateReady
			k.pushReady(p)
		}
	}
	for _, w := range k.nodeWatchers[name] {
		k.deliver(w, Msg{From: NoPID, SentAt: k.now, Payload: NodeDown{Node: name}})
	}
}

// RestartNode brings a crashed node back with an empty process table. The
// RAM disk contents persist across the restart, emulating nonvolatile
// memory. Watchers registered with WatchNode are notified with a NodeUp
// message — the hook the SCC's boot agent machinery hangs off.
func (k *Kernel) RestartNode(name string) {
	n := k.nodes[name]
	if n == nil || n.up {
		return
	}
	n.up = true
	if k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindNodeUp, Node: name})
	}
	for _, w := range k.nodeWatchers[name] {
		k.deliver(w, Msg{From: NoPID, SentAt: k.now, Payload: NodeUp{Node: name}})
	}
}
