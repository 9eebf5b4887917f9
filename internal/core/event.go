package core

import (
	"errors"
	"strconv"
)

// AID is an ARMOR identification number. ARMORs are addressed by AID, not
// by process ID or node, which is what lets the FTM migrate them between
// nodes transparently. AID 0 is invalid; the paper's node_mgmt
// daemon-translation bug escapes the FTM precisely because a failed
// hostname translation yields the default daemon ID of zero.
type AID uint64

// InvalidAID is the never-valid zero ARMOR ID.
const InvalidAID AID = 0

// Valid reports whether the AID could name a real ARMOR.
func (a AID) Valid() bool { return a != InvalidAID }

// String formats the AID.
func (a AID) String() string { return "armor-" + strconv.FormatUint(uint64(a), 10) }

// EventKind names an event type. Elements subscribe to kinds.
type EventKind string

// Core event kinds understood by every ARMOR's basic element set.
const (
	// EventAreYouAlive is the liveness inquiry; the runtime answers it
	// automatically with EventIAmAlive.
	EventAreYouAlive EventKind = "core.are-you-alive"
	// EventIAmAlive is the liveness reply.
	EventIAmAlive EventKind = "core.i-am-alive"
	// EventTimer is synthesized from process timers; Data is the tag.
	EventTimer EventKind = "core.timer"
	// EventChildExit is synthesized when a child process dies (waitpid).
	EventChildExit EventKind = "core.child-exit"
	// EventRestore instructs a reinstalled ARMOR to load its state from
	// the last committed checkpoint (step two of the paper's two-step
	// FTM recovery).
	EventRestore EventKind = "core.restore"
	// EventInstalled carries an InstallAck to the recovery initiator.
	EventInstalled EventKind = "core.installed"
)

// Event is one unit of work inside an ARMOR message. A message consists of
// sequential events that trigger element actions (Section 3.1).
//
// A small fixed payload travels inline, in N, A, B and S: each protocol
// kind with such a payload has a typed constructor that sets Kind and the
// words, and a typed accessor that reads them back only for that kind
// (InstallAck.Event and InstallAckOf here, the SIFT protocol's in
// internal/sift). Sending one allocates nothing. A large payload keeps one
// pointer in Data, built once and never copied into a second box.
type Event struct {
	Kind EventKind
	// Data is the payload that does not fit inline: a pointer to a
	// large, immutable record, a timer tag, or a child-exit report.
	Data interface{}
	// N is an inline scalar argument: a value that changes with every
	// event of a kind (a progress counter) travels here, so the payload
	// can be one immutable box shared by all of them.
	N uint64
	// A and B are inline words: an ID, a rank, a PID, an epoch.
	A, B uint64
	// S is an inline string header. It only ever carries a string that
	// already exists, such as a hostname or a child's exit reason, never
	// one formatted for the event.
	S string
}

// Envelope is the wire format for ARMOR-to-ARMOR communication. Envelopes
// are routed by the daemons: an ARMOR hands every outgoing envelope to its
// local daemon, which resolves the destination AID to a process.
//
// An envelope travels as a box drawn from its cluster's Boxes, where the
// lower layer originates it; every daemon on the route forwards that same
// pointer, bumping Hops in place. The box has one holder at a time, and the
// holder that reads it last gives it back. A sender that may retransmit
// keeps its own copy by value and boxes again.
type Envelope struct {
	Src AID
	Dst AID
	// SrcEpoch is the sender's incarnation epoch. Each time the FTM
	// declares an ARMOR failed and reinstalls it, the new incarnation
	// carries a higher epoch; receivers reject envelopes from a lower
	// epoch than the highest they have seen for that AID, which is what
	// lets a healed partition's stale ARMORs be told to stand down
	// instead of fighting their replacements. Zero means the sender
	// predates epoching (or epochs are disabled) and is always accepted.
	SrcEpoch uint64
	// Seq orders envelopes per (Src, Dst) pair for the reliable channel.
	Seq uint64
	// AckSeq is the sequence number an acknowledgment (Ack) answers.
	AckSeq uint64
	// Event is delivered to the subscribed elements. It is held inline —
	// no multi-event message is ever built — and so is its small payload,
	// so constructing an envelope allocates nothing.
	Event Event
	// Ack marks an acknowledgment for AckSeq; Event is zero. The three
	// flags sit together so the envelope stays 128 bytes, one size class.
	Ack bool
	// Corrupt marks an envelope whose contents were damaged by an error
	// inside the sender (a fail-silence violation). Parsing a corrupted
	// envelope crashes the receiver unless the corruption is caught by a
	// header assertion first.
	Corrupt bool
	// freed marks a box on its free list; see Boxes.Free.
	freed bool
	// Hops counts routing steps, guarding against forwarding loops.
	Hops int
}

// Boxes is a free list of envelope boxes, one per simulated cluster. Its
// processes run one at a time on the cluster's kernel, so it needs no lock;
// it must never be shared between kernels. A nil *Boxes allocates every
// box and frees none.
type Boxes struct {
	free []*Envelope
	// all holds every box the list has made, for Reclaim.
	all []*Envelope
}

// Box returns e in a box: the most recently freed one, or a new one when
// the list is empty.
//
//reesift:noalloc
func (b *Boxes) Box(e Envelope) *Envelope {
	if b != nil {
		if n := len(b.free); n > 0 {
			box := b.free[n-1]
			b.free = b.free[:n-1]
			*box = e
			return box
		}
	}
	box := new(Envelope)
	*box = e
	if b != nil {
		b.all = append(b.all, box)
	}
	return box
}

// errFreedTwice is Free's panic value.
var errFreedTwice = errors.New("core: envelope box freed twice")

// Free gives a box back for reuse. Only the box's last holder may call it,
// after its last read. The box is zeroed, so a free box pins no payload.
// Freeing a box twice panics: the second Free would otherwise surface much
// later, as two senders sharing one box.
//
//reesift:noalloc
func (b *Boxes) Free(box *Envelope) {
	if b == nil {
		return
	}
	if box.freed {
		panic(errFreedTwice)
	}
	*box = Envelope{freed: true}
	b.free = append(b.free, box)
}

// Reclaim gives every box the list has made back to it, the ones still
// held included, zeroed. Call it only when nothing can read or free a box
// any more: once every process of the cluster is dead and no holder of a
// box outlives the deployment. A box still held would otherwise be handed
// out twice.
func (b *Boxes) Reclaim() {
	if b == nil {
		return
	}
	b.free = b.free[:0]
	for _, box := range b.all {
		*box = Envelope{freed: true}
		b.free = append(b.free, box)
	}
}

// Stats reports how many boxes the list has allocated and how many of
// them are free now.
func (b *Boxes) Stats() (made, free int) {
	if b == nil {
		return 0, 0
	}
	return len(b.all), len(b.free)
}

// NewMsg builds an envelope carrying one event.
//
//reesift:noalloc
func NewMsg(src, dst AID, kind EventKind, data interface{}) Envelope {
	return Envelope{Src: src, Dst: dst, Event: Event{Kind: kind, Data: data}}
}
