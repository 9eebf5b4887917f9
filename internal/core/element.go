package core

// Element is a module inside an ARMOR process: private state plus handlers
// for the event kinds it subscribes to. Together the elements constitute
// the ARMOR's functionality; fault tolerance services are customized by
// picking the element set (Section 3.1).
//
// Elements must route all state changes through Handle so that
// microcheckpointing (which snapshots the element after each event
// delivery) captures every mutation. An element with checkpointed state
// writes its record layout once, as a Fields method, and embeds Schema,
// which derives Snapshot, Restore and HeapFields from it.
type Element interface {
	// Name identifies the element; checkpoint regions are keyed by it.
	Name() string
	// Subscriptions lists the event kinds the element handles. The
	// runtime only reads the list, so every instance of an element type
	// may return one shared slice.
	Subscriptions() []EventKind
	// Handle processes one event. It may send messages, start timers,
	// and mutate the element's own private state via ctx.
	Handle(ctx *Ctx, ev Event)
	// Snapshot serializes the element's private state. The result may
	// alias a scratch buffer the element owns (an Encoder it Resets on
	// every call): it is valid only until the element's next Snapshot,
	// and a caller that keeps it longer — as Checkpoint.Update does —
	// must copy it.
	Snapshot() []byte
	// Restore replaces the element's state from a snapshot. An error
	// means the snapshot is unparseable (e.g. a corrupted checkpoint).
	Restore(data []byte) error
	// Check runs the element's internal assertions: range checks,
	// ID-validity checks, and structure integrity checks (Section 3.3).
	// A non-nil error makes the ARMOR kill itself so that crash
	// recovery takes over.
	Check() error
}

// Starter is implemented by elements that need to arm timers or send
// messages when their ARMOR process starts. Start runs on fresh installs
// *and* after recovery (checkpoint restore), which is how periodic duties
// like heartbeating survive an ARMOR restart.
type Starter interface {
	Element
	Start(ctx *Ctx)
}

// HeapField exposes one non-pointer scalar datum of an element's live
// state for targeted heap injection (Section 7.2). Get/Set views the value
// as a 64-bit word; the injector flips one bit. Schema.HeapFields builds
// one for every field the element's layout declares with Heap.
type HeapField struct {
	// Name labels the field for result reporting, e.g.
	// "node_mgmt.daemonID[2]".
	Name string
	// Bits is the meaningful width (for floats and ints, 64; for small
	// enums, flipping only low bits keeps the experiment comparable to
	// flipping bits of a 32-bit int on the testbed).
	Bits uint
	Get  func() uint64
	Set  func(uint64)
}

// HeapInjectable is implemented by elements that expose their dynamic data
// for targeted heap injection, as every element embedding Schema does.
// Only non-pointer data is exposed, matching the paper's targeted
// experiments ("a single error in data (not pointers) was injected").
type HeapInjectable interface {
	Element
	HeapFields() []HeapField
}
