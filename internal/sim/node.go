package sim

import (
	"fmt"
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
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Up reports whether the node is operational.
func (n *Node) Up() bool { return n.up }

// RAMDisk returns the node-local nonvolatile store.
func (n *Node) RAMDisk() *FS { return n.ramDisk }

// Procs returns the PIDs of live processes on the node, sorted.
func (n *Node) Procs() []PID {
	pids := make([]PID, 0, len(n.procs))
	for pid := range n.procs {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	return pids
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
	for _, pid := range n.Procs() {
		p := n.procs[pid]
		if p == nil || p.state == stateDead {
			continue
		}
		p.killed = true
		p.killReason = fmt.Sprintf("node %s failure", name)
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
