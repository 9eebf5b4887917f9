package core

import "fmt"

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
func (a AID) String() string { return fmt.Sprintf("armor-%d", uint64(a)) }

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
	// EventConfigure carries initial element configuration at install.
	EventConfigure EventKind = "core.configure"
	// EventRestore instructs a reinstalled ARMOR to load its state from
	// the last committed checkpoint (step two of the paper's two-step
	// FTM recovery).
	EventRestore EventKind = "core.restore"
	// EventInstalled carries an InstallAck to the recovery initiator.
	EventInstalled EventKind = "core.installed"
)

// Event is one unit of work inside an ARMOR message. A message consists of
// sequential events that trigger element actions (Section 3.1).
type Event struct {
	Kind EventKind
	// Data is the event payload. Payload types are plain structs defined
	// by the element packages.
	Data interface{}
}

// Envelope is the wire format for ARMOR-to-ARMOR communication. Envelopes
// are routed by the daemons: an ARMOR hands every outgoing envelope to its
// local daemon, which resolves the destination AID to a process.
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
	// Ack marks an acknowledgment for AckSeq; Event is zero.
	Ack    bool
	AckSeq uint64
	// Event is delivered to the subscribed elements. It is held inline —
	// no multi-event message is ever built — so constructing an envelope
	// allocates nothing.
	Event Event
	// Corrupt marks an envelope whose contents were damaged by an error
	// inside the sender (a fail-silence violation). Parsing a corrupted
	// envelope crashes the receiver unless the corruption is caught by a
	// header assertion first.
	Corrupt bool
	// Hops counts routing steps, guarding against forwarding loops.
	Hops int
}

// Box returns a heap copy of the envelope, the form it travels in: the
// lower layer boxes an envelope once where it is originated — its one
// allocation — and every daemon on the route forwards that same pointer,
// bumping Hops in place. The box has one holder at a time; a sender that
// may retransmit keeps its own copy by value and boxes again.
func (e Envelope) Box() *Envelope { return &e }

// NewMsg builds an envelope carrying one event.
//
//reesift:noalloc
func NewMsg(src, dst AID, kind EventKind, data interface{}) Envelope {
	return Envelope{Src: src, Dst: dst, Event: Event{Kind: kind, Data: data}}
}
