// Package trace is the structured observability layer of the
// reproduction: a typed, bounded, allocation-conscious event record
// threaded through the sim kernel, the ARMOR runtime, the SIFT
// environment, and the injection harness.
//
// The package is a leaf — stdlib only — so every layer can import it.
// Three pieces compose:
//
//   - Record / Kind: one typed trace event (sim-time, node, PID, kind,
//     args). Records are plain values; emitting one into a Recorder
//     performs no heap allocation, which is what lets the kernel keep
//     its zero-alloc hot-path contract with tracing enabled.
//   - Recorder: the bounded ring-buffer sink every emission lands in.
//     It keeps the newest N records (the "trace tail"), a running
//     FNV-1a digest over *every* record ever emitted, and a total
//     count — the digest is the fingerprint deterministic replay is
//     checked against.
//   - Bundle: the self-contained JSONL repro artifact snapshotted when
//     a trial classifies as a system failure — campaign identity, cell,
//     run index, derived seed, cluster config, verdict, and the trace
//     tail.
package trace

import (
	"fmt"
	"time"
)

// Kind classifies a trace record. The numeric values are part of the
// digest, so reordering existing constants invalidates recorded
// digests; append new kinds at the end.
type Kind uint8

// Record kinds, covering the kernel substrate (procs, nodes, messages),
// the protocol layer (installs, checkpoints, migrations, heartbeats,
// detections, recoveries), and the harness (injections, metric samples,
// breach markers).
const (
	KindNone Kind = iota
	// Kernel substrate.
	KindProcSpawn // a process entered the run queue; PID, Node
	KindProcExit  // a process finalized; PID, Node, A=exit code, Detail=reason
	KindNodeDown  // a node crashed; Node
	KindNodeUp    // a node restarted; Node
	KindMsgSend   // a message left a process; PID=src, A=dst PID
	// Protocol layer (SIFT / ARMOR).
	KindLog        // EventLog mirror; Op=log kind, Detail=log detail
	KindDetect     // failure detection; Op=who, Detail=reason, A=1 when hang
	KindRecovery   // recovery window closed; Op=who, A=detected-at ns
	KindCheckpoint // checkpoint commit; Op=ARMOR name, A=commit ordinal
	KindHeartbeat  // heartbeat poll round; Op=poller, Node=FTM node
	// Harness.
	KindInjectFire // injector activation; Op=model, A=errors inserted
	KindArrival    // chaos arrival process fired; Op=model, Node=target node
	KindMetric     // sampled gauge; Op=gauge name, A=value
	kindReserved   // 14, formerly free-form text; held so KindBreach stays 15
	KindBreach     // terminal invariant breach / system-failure verdict; Op=mode
)

// kindNames maps kinds to the stable wire names used in bundle JSONL.
var kindNames = [...]string{
	KindNone:       "none",
	KindProcSpawn:  "proc-spawn",
	KindProcExit:   "proc-exit",
	KindNodeDown:   "node-down",
	KindNodeUp:     "node-up",
	KindMsgSend:    "msg-send",
	KindLog:        "log",
	KindDetect:     "detect",
	KindRecovery:   "recovery",
	KindCheckpoint: "checkpoint",
	KindHeartbeat:  "heartbeat",
	KindInjectFire: "inject-fire",
	KindArrival:    "arrival",
	KindMetric:     "metric",
	kindReserved:   "reserved",
	KindBreach:     "breach",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString inverts String; unknown names map to KindNone.
func KindFromString(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindNone
}

// Record is one structured trace event. The field set is deliberately
// flat and fixed-size-ish — strings reference existing data (node
// names, ARMOR names, log kinds), the two integer args carry
// kind-specific payloads — so storing a Record in a pre-sized ring
// costs no allocation.
type Record struct {
	At     time.Duration `json:"at"`
	Kind   Kind          `json:"-"`
	KindS  string        `json:"kind"` // wire name of Kind; filled on marshal
	Op     string        `json:"op,omitempty"`
	Node   string        `json:"node,omitempty"`
	PID    int64         `json:"pid,omitempty"`
	A      int64         `json:"a,omitempty"`
	B      int64         `json:"b,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// FNV-1a 64-bit parameters (hash/fnv allocates a hash.Hash64; the fold
// here is inlined so digest updates stay allocation-free).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func foldByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func foldU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = foldByte(h, byte(v>>(8*uint(i))))
	}
	return h
}

func foldString(h uint64, s string) uint64 {
	h = foldU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = foldByte(h, s[i])
	}
	return h
}

// fold mixes one record into a running digest.
func fold(h uint64, r Record) uint64 {
	h = foldU64(h, uint64(r.At))
	h = foldByte(h, byte(r.Kind))
	h = foldString(h, r.Op)
	h = foldString(h, r.Node)
	h = foldU64(h, uint64(r.PID))
	h = foldU64(h, uint64(r.A))
	h = foldU64(h, uint64(r.B))
	h = foldString(h, r.Detail)
	return h
}
