package sift

import (
	"fmt"
	"strings"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
	"reesift/internal/trace"
)

// FTMSite is one daemon-bearing node the FTM can be (re)installed on.
type FTMSite struct {
	Node   string
	Daemon core.AID
}

// HeartbeatElem is the single element the Heartbeat ARMOR adds beyond the
// basic set (Section 3.1): it periodically polls the FTM for liveness and
// drives the two-step FTM recovery when the poll times out.
//
// The two-step structure — (1) instruct a daemon to reinstall the FTM,
// (2) after the install acknowledgment, instruct the FTM to restore its
// state from checkpoint — is kept exactly as described, because its
// failure mode is one of the paper's system failures: a Heartbeat ARMOR
// suffering receive omissions falsely detects an FTM failure, reinstalls
// the FTM, never sees the acknowledgment, and never sends the restore,
// leaving the FTM wedged.
//
// Reinstallation is location-independent (the recovery subsystem's FTM
// migration path): the element walks its Sites list, instructing one
// daemon per polling period until an install acknowledgment arrives. If
// the FTM's own node (or its daemon) is gone, the FTM migrates to the
// first surviving daemon-bearing node and the new location is broadcast
// to every daemon's routing cache. Install instructions are sent
// unreliably on purpose — the retry walk is the reliability layer, and a
// blindly retransmitted install must not resurrect a stale FTM shell on
// a node the recovery has already moved past.
type HeartbeatElem struct {
	core.Schema[HeartbeatElem, *HeartbeatElem]
	env *Environment

	// FTMNode is the hostname the FTM currently runs on.
	FTMNode string
	// FTMDaemon is the daemon AID on the FTM's current node.
	FTMDaemon core.AID
	// Period is the polling period (10 s in the paper).
	Period time.Duration
	// Sites lists every daemon-bearing node the FTM may be reinstalled
	// on, in preference order (current FTM node first, this ARMOR's own
	// node last). Empty Sites degrade to the fixed-node behaviour.
	Sites []FTMSite

	// FTMEpoch is the incarnation epoch of the FTM this element believes
	// is live. Each FTM failure declaration bumps it, and every
	// reinstall spec carries it, so daemons can tell a legitimate FTM
	// recovery from a superseded Heartbeat incarnation replaying stale
	// installs after a partition heals. Checkpoint-encoded: a recovered
	// Heartbeat ARMOR must keep counting from the FTM's true epoch.
	// Zero when epoching is disabled. (Distinct from RetryEpoch below,
	// which only invalidates stale local retry timers within one
	// incarnation's recovery walk.)
	FTMEpoch uint64

	// AwaitingReply marks an outstanding liveness inquiry.
	AwaitingReply bool
	// Recovering is true from false/true detection until the restore
	// command is sent.
	Recovering bool
	// Recoveries counts initiated FTM recoveries. (Migrations are
	// accounted through the environment log's "ftm-migrated" entries.)
	Recoveries int64

	// TryIdx indexes Sites during a recovery walk; RetryEpoch
	// invalidates stale install-retry timers once a walk ends.
	TryIdx     int64
	RetryEpoch int64
}

type ftmPollTag struct{}
type ftmRetryTag struct{ epoch int64 }

// Name implements core.Element.
func (e *HeartbeatElem) Name() string { return "ftm_watch" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *HeartbeatElem) Subscriptions() []core.EventKind { return heartbeatSubscriptions }

var heartbeatSubscriptions = []core.EventKind{core.EventIAmAlive, core.EventInstalled}

// Start arms the polling timer.
func (e *HeartbeatElem) Start(ctx *core.Ctx) {
	ctx.After(e.Name(), e.Period, ftmPollTag{})
}

// Handle implements core.Element.
func (e *HeartbeatElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case core.EventIAmAlive:
		if ctx.From == AIDFTM {
			e.AwaitingReply = false
		}
	case core.EventInstalled:
		ack, ok := core.InstallAckOf(ev)
		if !ok || ack.ID != AIDFTM || !e.Recovering {
			return
		}
		e.installAcked(ctx, ack)
	case core.EventTimer:
		switch tag := ev.Data.(type) {
		case ftmPollTag:
			e.poll(ctx)
		case ftmRetryTag:
			e.installRetry(ctx, tag)
		}
	}
}

// installAcked completes a recovery walk: adopt the acked site as the
// FTM's location, broadcast it to every daemon's routing cache, and send
// step two (restore from checkpoint). The site is resolved from the
// acked process itself (a process-table read, like the daemons'
// waitpid): under lossy networks the ack may be a retransmission from
// an earlier walk step, and attributing it to the walk's *current*
// position would broadcast a location with no FTM on it.
func (e *HeartbeatElem) installAcked(ctx *core.Ctx, ack core.InstallAck) {
	site := e.currentSite()
	if n := ctx.Proc.Kernel().ProcNode(ack.PID); n != nil {
		for _, s := range e.Sites {
			if s.Node == n.Name() {
				site = s
				break
			}
		}
	}
	e.RetryEpoch++ // cancel the pending retry step
	if site.Node != "" && site.Node != e.FTMNode && e.env != nil {
		e.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogFTMMigrated, ref: &logRef{s: e.FTMNode, s2: site.Node}})
	}
	if site.Node != "" {
		e.FTMNode, e.FTMDaemon = site.Node, site.Daemon
		for _, s := range e.Sites {
			ctx.SendEventUnreliable(s.Daemon, Location{ID: AIDFTM, Node: site.Node, Epoch: e.FTMEpoch}.Event())
		}
	}
	// Step two: restore the FTM's state from checkpoint.
	if e.env != nil {
		e.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogFTMRestoreSent})
	}
	ctx.Send(AIDFTM, core.EventRestore, nil)
	e.Recovering = false
	e.AwaitingReply = false
}

// currentSite returns the site the recovery walk is pointing at (the
// fixed FTM daemon when no Sites are configured).
func (e *HeartbeatElem) currentSite() FTMSite {
	if len(e.Sites) == 0 {
		return FTMSite{Node: e.FTMNode, Daemon: e.FTMDaemon}
	}
	return e.Sites[int(e.TryIdx)%len(e.Sites)]
}

// sendInstall instructs the walk's current daemon to reinstall the FTM
// and arms the next retry step one period out.
func (e *HeartbeatElem) sendInstall(ctx *core.Ctx) {
	site := e.currentSite()
	spec := &ArmorSpec{
		ID:              AIDFTM,
		Kind:            KindFTM,
		Name:            "ftm",
		AwaitRestore:    true,
		NotifyInstalled: AIDHeartbeat,
		Epoch:           e.FTMEpoch,
	}
	if e.env != nil {
		e.env.Log.addNode(ctx.Now(), LogFTMReinstallAttempt, site.Node)
	}
	ctx.SendEventUnreliable(site.Daemon, InstallArmor{Spec: spec}.Event())
	e.RetryEpoch++
	ctx.After(e.Name(), e.Period, ftmRetryTag{epoch: e.RetryEpoch})
}

// installRetry advances the recovery walk to the next candidate site
// when an install went unacknowledged for a full period (dead daemon,
// dead node, or a lost message).
func (e *HeartbeatElem) installRetry(ctx *core.Ctx, tag ftmRetryTag) {
	if !e.Recovering || tag.epoch != e.RetryEpoch {
		return
	}
	e.TryIdx++
	e.sendInstall(ctx)
}

func (e *HeartbeatElem) poll(ctx *core.Ctx) {
	defer ctx.After(e.Name(), e.Period, ftmPollTag{})
	if e.Recovering {
		return // recovery in flight; wait for the install ack
	}
	if e.AwaitingReply {
		// The FTM did not answer within a full period: declare it
		// failed and start the two-step recovery. The replacement
		// incarnation supersedes the one just declared dead.
		e.Recovering = true
		e.Recoveries++
		e.AwaitingReply = false
		if e.FTMEpoch > 0 {
			e.FTMEpoch++
		}
		if e.env != nil {
			e.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogFTMFailureDetected})
			// Classify by what actually happened to the FTM process:
			// if it is still in the process table (suspended), this is
			// a hang; if it is gone, a crash.
			hang := false
			reason := "heartbeat timeout"
			if pid := e.env.ProcOf(AIDFTM); pid != sim.NoPID {
				if ctx.Proc.Kernel().Alive(pid) {
					hang = true
				} else if st := ctx.Proc.Kernel().Exit(pid); st != nil {
					reason = st.Reason
					if strings.Contains(reason, "hang") {
						hang = true // daemon already killed the hung FTM
					}
				}
			}
			e.env.Log.Detect(ctx.Now(), AIDFTM, reason, hang)
		}
		// Start the location-independent recovery walk at the FTM's
		// current node.
		e.TryIdx = 0
		for i, s := range e.Sites {
			if s.Node == e.FTMNode {
				e.TryIdx = int64(i)
				break
			}
		}
		e.sendInstall(ctx)
		return
	}
	e.AwaitingReply = true
	if k := ctx.Proc.Kernel(); k.TraceOn() {
		k.Emit(trace.Record{Kind: trace.KindHeartbeat, Op: e.Name(), Node: e.FTMNode,
			A: e.Recoveries, B: int64(e.FTMEpoch)})
	}
	ctx.SendUnreliable(AIDFTM, core.EventAreYouAlive, nil)
}

// Fields declares ftm_watch's checkpointed state.
func (e *HeartbeatElem) Fields(c *core.Codec) {
	core.Str(c, &e.FTMNode, core.NoHeap)
	core.U64(c, &e.FTMDaemon, core.Heap(1, "ftmDaemon", 16))
	core.I64(c, &e.Period, core.Heap(0, "period", 48))
	// A recovered Heartbeat ARMOR starts a fresh poll cycle rather than
	// trusting a stale in-flight state.
	core.Dropped(c, &e.AwaitingReply)
	core.Dropped(c, &e.Recovering)
	core.I64(c, &e.Recoveries, core.Heap(2, "recoveries", 8))
	core.U64(c, &e.FTMEpoch, core.NoHeap)
}

// Check implements core.Element.
func (e *HeartbeatElem) Check() error {
	if e.FTMDaemon == core.InvalidAID {
		return fmt.Errorf("zero FTM daemon AID")
	}
	if e.Period <= 0 || e.Period > time.Hour {
		return fmt.Errorf("poll period %v out of range", e.Period)
	}
	if e.Recoveries < 0 || e.Recoveries > 10000 {
		return fmt.Errorf("recovery count %d", e.Recoveries)
	}
	return nil
}

var _ core.Starter = (*HeartbeatElem)(nil)
