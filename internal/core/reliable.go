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

// commState is the sequencing of reliable point-to-point ARMOR messaging,
// held in three tables of rows:
//
//   - sent: {peer, the last sequence number assigned to it};
//   - recv: {peer, the top of its receive window}: every number up to
//     the top has been processed;
//   - extra: {src, seq} pairs processed out of order above src's window.
//     markSeen folds them into the window once the gap below them closes.
//
// Each table is kept sorted on insert (by peer; extra by src, then seq),
// so the embedded Schema writes the region straight from the rows, with no
// sorting and, through its scratch encoder, no allocation.
//
// A pair whose window never closes stays in extra for good. The SCC
// numbers its reliable sends from one counter shared by every
// destination, so a receiver never sees SCC seq 1 and keeps every SCC
// message there (ROADMAP item 24, a per-destination counter, mends it).
type commState struct {
	Schema[commState, *commState]
	sent  []seqRow
	recv  []seqRow
	extra []seqRow
}

// seqRow is one row of a commState table.
type seqRow struct {
	peer AID
	seq  uint64
}

func (r *seqRow) Fields(c *Codec) {
	U64(c, &r.peer, NoHeap)
	U64(c, &r.seq, NoHeap)
}

// reset empties the channel state, keeping the tables' capacity.
func (s *commState) reset() {
	s.attach(s)
	s.sent, s.recv, s.extra = s.sent[:0], s.recv[:0], s.extra[:0]
}

// Name names the checkpoint region.
func (s *commState) Name() string { return commName }

// Fields declares the region: sent, recv and extra, each a count and its
// (key, value) words. A decoded table is put back in order, which a
// corrupted key may have broken: a peer's last row wins, and a pair is
// kept once.
func (s *commState) Fields(c *Codec) {
	peerRows(c, &s.sent)
	peerRows(c, &s.recv)
	for i := range Rows(c, &s.extra, 1<<20, "out-of-order pairs") {
		s.extra[i].Fields(c.Row(i))
	}
	if c.op >= opDecode {
		slices.SortFunc(s.extra, comparePair)
		s.extra = slices.Compact(s.extra)
	}
}

// peerRows walks a table keyed by peer.
func peerRows(c *Codec, t *[]seqRow) {
	for i := range Rows(c, t, 1<<20, "peers") {
		(*t)[i].Fields(c.Row(i))
	}
	if c.op >= opDecode {
		// Reversed, a stable sort puts a peer's last row first, and
		// Compact keeps the first of a run.
		slices.Reverse(*t)
		slices.SortStableFunc(*t, comparePeer)
		*t = slices.CompactFunc(*t, func(x, y seqRow) bool { return x.peer == y.peer })
	}
}

func comparePeer(x, y seqRow) int { return cmp.Compare(x.peer, y.peer) }

func comparePair(x, y seqRow) int {
	return cmp.Or(cmp.Compare(x.peer, y.peer), cmp.Compare(x.seq, y.seq))
}

// find locates peer's row in a table sorted by peer, or where it goes.
func find(t []seqRow, peer AID) (int, bool) {
	return slices.BinarySearchFunc(t, seqRow{peer: peer}, comparePeer)
}

// assign returns the next sequence number for messages to dst.
func (s *commState) assign(dst AID) uint64 {
	i, ok := find(s.sent, dst)
	if !ok {
		s.sent = slices.Insert(s.sent, i, seqRow{peer: dst})
	}
	s.sent[i].seq++
	return s.sent[i].seq
}

// window finds src's row in recv, and the top of its window: 0 without a
// row.
func (s *commState) window(src AID) (i int, ok bool, top uint64) {
	if i, ok = find(s.recv, src); ok {
		top = s.recv[i].seq
	}
	return i, ok, top
}

// seen reports whether (src, seq) was already processed.
func (s *commState) seen(src AID, seq uint64) bool {
	if _, _, top := s.window(src); seq <= top {
		return true
	}
	_, ok := slices.BinarySearchFunc(s.extra, seqRow{src, seq}, comparePair)
	return ok
}

// markSeen records (src, seq) as processed.
func (s *commState) markSeen(src AID, seq uint64) {
	i, ok, top := s.window(src)
	if seq <= top {
		return
	}
	if seq != top+1 {
		if j, dup := slices.BinarySearchFunc(s.extra, seqRow{src, seq}, comparePair); !dup {
			s.extra = slices.Insert(s.extra, j, seqRow{src, seq})
		}
		return
	}
	if !ok {
		s.recv = slices.Insert(s.recv, i, seqRow{peer: src})
	}
	j, _ := slices.BinarySearchFunc(s.extra, seqRow{src, seq + 1}, comparePair)
	k := j
	for k < len(s.extra) && s.extra[k] == (seqRow{src, seq + 1}) {
		seq++
		k++
	}
	s.extra = slices.Delete(s.extra, j, k)
	s.recv[i].seq = seq
}

// forgetPeer drops all sequencing state for one peer (a fresh incarnation
// restarts numbering from one).
func (s *commState) forgetPeer(peer AID) {
	if i, ok := find(s.sent, peer); ok {
		s.sent = slices.Delete(s.sent, i, i+1)
	}
	if i, ok := find(s.recv, peer); ok {
		s.recv = slices.Delete(s.recv, i, i+1)
	}
	i, _ := find(s.extra, peer)
	j := i
	for j < len(s.extra) && s.extra[j].peer == peer {
		j++
	}
	s.extra = slices.Delete(s.extra, i, j)
}
