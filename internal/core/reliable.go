package core

import (
	"cmp"
	"slices"
)

// commName is the checkpoint region holding the reliable channel state.
// Sequence bookkeeping must be checkpointed: when an ARMOR crashes while
// processing a message and rolls back, the message must *not* count as
// seen, so the sender's retransmission gets processed again. This is what
// makes the paper's "Execution ARMOR resends the application-failed
// message until it receives an acknowledgment" recovery work — and also
// what makes its crash-loop system failure possible when the resent
// message itself is corrupt.
const commName = "core.comm"

// commState implements sequencing for reliable point-to-point ARMOR
// messaging: per-peer send sequence numbers and duplicate suppression on
// the receive side.
//
// The peer-key slices mirror the map keys in sorted order, maintained
// incrementally (binary insert on first use of a peer), so the
// per-transmission snapshot is a straight O(peers) encode with no sorting
// and — together with the persistent scratch encoder — no allocation.
type commState struct {
	nextSeq  map[AID]uint64
	lastSeen map[AID]uint64
	// extraSeen holds out-of-order seen sequence numbers above
	// lastSeen, pruned as the window closes.
	extraSeen map[AID]map[uint64]bool

	seqKeys  []AID // sorted keys of nextSeq
	seenKeys []AID // sorted keys of lastSeen

	enc         Encoder    // reused by snapshot
	pairScratch []commPair // reused by snapshot for extraSeen flattening
}

type commPair struct {
	src AID
	seq uint64
}

func newCommState() *commState {
	c := new(commState)
	c.reset()
	return c
}

// reset empties the channel state, keeping the maps' and key slices'
// capacity.
func (c *commState) reset() {
	if c.nextSeq == nil {
		c.nextSeq = make(map[AID]uint64)
		c.lastSeen = make(map[AID]uint64)
		c.extraSeen = make(map[AID]map[uint64]bool)
	}
	clear(c.nextSeq)
	clear(c.lastSeen)
	clear(c.extraSeen)
	c.seqKeys, c.seenKeys = c.seqKeys[:0], c.seenKeys[:0]
}

// insertAID adds k to a sorted key slice if absent.
func insertAID(keys []AID, k AID) []AID {
	i, found := slices.BinarySearch(keys, k)
	if found {
		return keys
	}
	keys = append(keys, 0)
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys
}

// removeAID deletes k from a sorted key slice if present.
func removeAID(keys []AID, k AID) []AID {
	i, found := slices.BinarySearch(keys, k)
	if !found {
		return keys
	}
	copy(keys[i:], keys[i+1:])
	return keys[:len(keys)-1]
}

// assign returns the next sequence number for messages to dst.
func (c *commState) assign(dst AID) uint64 {
	if _, ok := c.nextSeq[dst]; !ok {
		c.seqKeys = insertAID(c.seqKeys, dst)
	}
	c.nextSeq[dst]++
	return c.nextSeq[dst]
}

// seen reports whether (src, seq) was already processed.
func (c *commState) seen(src AID, seq uint64) bool {
	if seq <= c.lastSeen[src] {
		return true
	}
	return c.extraSeen[src][seq]
}

// markSeen records (src, seq) as processed.
func (c *commState) markSeen(src AID, seq uint64) {
	if seq <= c.lastSeen[src] {
		return
	}
	if seq == c.lastSeen[src]+1 {
		if _, ok := c.lastSeen[src]; !ok {
			c.seenKeys = insertAID(c.seenKeys, src)
		}
		c.lastSeen[src] = seq
		extra := c.extraSeen[src]
		for extra[c.lastSeen[src]+1] {
			delete(extra, c.lastSeen[src]+1)
			c.lastSeen[src]++
		}
		if len(extra) == 0 {
			delete(c.extraSeen, src)
		}
		return
	}
	if c.extraSeen[src] == nil {
		c.extraSeen[src] = make(map[uint64]bool)
	}
	c.extraSeen[src][seq] = true
}

// forgetPeer drops all sequencing state for one peer (a fresh incarnation
// restarts numbering from one).
func (c *commState) forgetPeer(peer AID) {
	if _, ok := c.nextSeq[peer]; ok {
		delete(c.nextSeq, peer)
		c.seqKeys = removeAID(c.seqKeys, peer)
	}
	if _, ok := c.lastSeen[peer]; ok {
		delete(c.lastSeen, peer)
		c.seenKeys = removeAID(c.seenKeys, peer)
	}
	delete(c.extraSeen, peer)
}

// putSeqMap encodes a per-peer sequence map in sorted key order.
//
//reesift:noalloc
func putSeqMap(e *Encoder, m map[AID]uint64, keys []AID) {
	e.PutU64(uint64(len(keys)))
	for _, k := range keys {
		e.PutU64(uint64(k))
		e.PutU64(m[k])
	}
}

func compareCommPair(x, y commPair) int {
	return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.seq, y.seq))
}

// snapshot serializes the channel state deterministically. The returned
// slice is the commState's scratch buffer, valid until the next snapshot
// call; Checkpoint.Update copies it immediately.
//
//reesift:noalloc
func (c *commState) snapshot() []byte {
	e := &c.enc
	e.Reset()
	putSeqMap(e, c.nextSeq, c.seqKeys)
	putSeqMap(e, c.lastSeen, c.seenKeys)
	// extraSeen: flattened (src, seq) pairs, sorted. Only out-of-order
	// arrivals populate it, and markSeen prunes a source's set once its
	// window closes. A window that never closes pins its pairs for good,
	// and that is a leak today: the SCC numbers its reliable sends from
	// one counter shared by every destination, so a receiver never sees
	// SCC seq 1, every SCC message stays here, and each snapshot re-sorts
	// them all (ROADMAP item 24, a per-destination counter, mends it).
	pairs := c.pairScratch[:0]
	for src, seqs := range c.extraSeen {
		for seq := range seqs {
			pairs = append(pairs, commPair{src, seq})
		}
	}
	c.pairScratch = pairs
	if len(pairs) > 1 {
		slices.SortFunc(pairs, compareCommPair)
	}
	e.PutU64(uint64(len(pairs)))
	for _, p := range pairs {
		e.PutU64(uint64(p.src))
		e.PutU64(p.seq)
	}
	return e.Bytes()
}

// restore replaces the channel state from a snapshot, decoding into the
// emptied maps and key slices. On error the state is partly restored; the
// runtime crashes the ARMOR then, so nothing reads it.
func (c *commState) restore(data []byte) error {
	c.reset()
	d := NewDecoder(data)
	getSeqMap(d, c.nextSeq)
	getSeqMap(d, c.lastSeen)
	n := d.U64()
	if n > 1<<20 {
		d.fail("comm extra size %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		src := AID(d.U64())
		seq := d.U64()
		if c.extraSeen[src] == nil {
			c.extraSeen[src] = make(map[uint64]bool)
		}
		c.extraSeen[src][seq] = true
	}
	if err := d.Done(); err != nil {
		return err
	}
	c.seqKeys = sortedAIDs(c.nextSeq, c.seqKeys)
	c.seenKeys = sortedAIDs(c.lastSeen, c.seenKeys)
	return nil
}

// getSeqMap decodes a per-peer sequence map written by putSeqMap into m.
func getSeqMap(d *Decoder, m map[AID]uint64) {
	n := d.U64()
	if n > 1<<20 {
		d.fail("comm map size %d", n)
		return
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := AID(d.U64())
		m[k] = d.U64()
	}
}

// sortedAIDs rebuilds a sorted key slice from a map, reusing dst.
func sortedAIDs(m map[AID]uint64, dst []AID) []AID {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
