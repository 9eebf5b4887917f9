// Package mpi is a miniature MPI runtime for the simulated cluster,
// providing the three behaviours the paper's evaluation depends on:
//
//  1. rank 0 launches the remaining ranks remotely and distributes the
//     world membership (Table 1, step 5);
//  2. startup is guarded by a timeout — if the other ranks do not join,
//     rank 0 aborts the application, which is the mechanism behind the
//     FTM-application correlated failure of Section 5.2 (Figure 8);
//  3. point-to-point sends and receives are blocking, so the MPI
//     processes are tightly coupled: a rank stalled by SIFT recovery
//     stalls its peers (the Execution-ARMOR-application correlated
//     failure).
//
// The runtime is transport-agnostic: it runs over any Conn that exposes
// the process and a filtered receive (the sift.AppContext implements it).
package mpi

import (
	"fmt"
	"time"

	"reesift/internal/sim"
)

// Conn is the process-side transport the runtime uses.
type Conn interface {
	// Process returns the simulated process the rank runs on.
	Process() *sim.Proc
	// RecvMatch returns the first pending or arriving message matching
	// pred within the timeout, stashing others.
	RecvMatch(timeout time.Duration, pred func(sim.Msg) bool) (sim.Msg, bool)
}

// msg is the MPI wire format.
type msg struct {
	App  uint64
	From int
	To   int
	Tag  string
	Data []float64
	// PIDs is set on worldInit messages.
	PIDs map[int]sim.PID
}

const (
	tagWorldInit = "mpi.world-init"
	tagReady     = "mpi.ready"
	tagGo        = "mpi.go"
)

// World is one rank's view of the MPI job.
type World struct {
	conn Conn
	app  uint64
	rank int
	size int
	pids map[int]sim.PID
}

// ErrStartupTimeout is returned when world formation does not complete in
// time; the caller is expected to abort the application.
var ErrStartupTimeout = fmt.Errorf("mpi: startup timeout")

// ErrRecvTimeout is returned when a blocking receive exceeds its bound.
var ErrRecvTimeout = fmt.Errorf("mpi: receive timeout")

// NewLeader forms the world from rank 0: it distributes the membership to
// the already-spawned worker processes, waits for every Ready, then
// releases all ranks. pids maps rank to process for ranks 1..size-1.
func NewLeader(conn Conn, app uint64, size int, pids map[int]sim.PID, timeout time.Duration) (*World, error) {
	w := &World{conn: conn, app: app, rank: 0, size: size, pids: make(map[int]sim.PID, size)}
	w.pids[0] = conn.Process().Self()
	for r, pid := range pids {
		w.pids[r] = pid
	}
	for r := 1; r < size; r++ {
		w.send(r, tagWorldInit, nil, w.pids)
	}
	deadline := conn.Process().Now() + timeout
	ready := make(map[int]bool)
	for len(ready) < size-1 {
		remain := deadline - conn.Process().Now()
		if remain <= 0 {
			return nil, fmt.Errorf("%w: %d of %d workers ready", ErrStartupTimeout, len(ready), size-1)
		}
		m, ok := w.recvTag(tagReady, remain)
		if !ok {
			return nil, fmt.Errorf("%w: %d of %d workers ready", ErrStartupTimeout, len(ready), size-1)
		}
		ready[m.From] = true
	}
	for r := 1; r < size; r++ {
		w.send(r, tagGo, nil, nil)
	}
	return w, nil
}

// JoinWorker forms the world from a worker rank: it waits for the
// membership from rank 0, acknowledges, and waits for the release.
func JoinWorker(conn Conn, app uint64, rank int, timeout time.Duration) (*World, error) {
	w := &World{conn: conn, app: app, rank: rank, pids: make(map[int]sim.PID)}
	deadline := conn.Process().Now() + timeout
	init, ok := w.recvTag(tagWorldInit, timeout)
	if !ok {
		return nil, fmt.Errorf("%w: no world-init", ErrStartupTimeout)
	}
	for r, pid := range init.PIDs {
		w.pids[r] = pid
	}
	w.size = len(w.pids)
	w.send(0, tagReady, nil, nil)
	remain := deadline - conn.Process().Now()
	if _, ok := w.recvTag(tagGo, remain); !ok {
		return nil, fmt.Errorf("%w: no go", ErrStartupTimeout)
	}
	return w, nil
}

// Rank returns this process's rank.
func (w *World) Rank() int { return w.rank }

// Size returns the world size.
func (w *World) Size() int { return w.size }

// PID returns the process of a rank.
func (w *World) PID(rank int) sim.PID { return w.pids[rank] }

// Send transmits a tagged data vector to a rank (non-blocking at the
// sender, like an eager-protocol MPI_Send of a small message).
//
// Send does not copy: the receiver gets data's backing array. The sender
// gives the slice up and never writes it again, and a receiver writes it
// only through a copy-on-write heap registration
// (sift.AppContext.RegisterHeapF64). A slice sent to several ranks is one
// array they all share read-only.
func (w *World) Send(to int, tag string, data []float64) {
	w.send(to, tag, data, nil)
}

func (w *World) send(to int, tag string, data []float64, pids map[int]sim.PID) {
	w.conn.Process().Send(w.pids[to], msg{
		App: w.app, From: w.rank, To: to, Tag: tag, Data: data, PIDs: pids,
	})
}

// Recv blocks until a message with the tag arrives from the given rank.
// It returns ErrRecvTimeout if the bound passes — tight coupling with an
// escape hatch so a dead peer eventually surfaces as an application error.
func (w *World) Recv(from int, tag string, timeout time.Duration) ([]float64, error) {
	m, ok := w.recvFrom(from, tag, timeout)
	if !ok {
		return nil, fmt.Errorf("%w: from rank %d tag %s", ErrRecvTimeout, from, tag)
	}
	return m.Data, nil
}

func (w *World) recvTag(tag string, timeout time.Duration) (msg, bool) {
	m, ok := w.conn.RecvMatch(timeout, func(sm sim.Msg) bool {
		mm, is := sm.Payload.(msg)
		return is && mm.App == w.app && mm.Tag == tag
	})
	if !ok {
		return msg{}, false
	}
	return m.Payload.(msg), true
}

func (w *World) recvFrom(from int, tag string, timeout time.Duration) (msg, bool) {
	m, ok := w.conn.RecvMatch(timeout, func(sm sim.Msg) bool {
		mm, is := sm.Payload.(msg)
		return is && mm.App == w.app && mm.Tag == tag && mm.From == from
	})
	if !ok {
		return msg{}, false
	}
	return m.Payload.(msg), true
}
