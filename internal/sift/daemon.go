package sift

import (
	"slices"
	"strings"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// DaemonBootstrap is the one-time static configuration the SCC pushes to a
// daemon at environment initialization: the peers' process addresses and
// the well-known ARMOR placements.
type DaemonBootstrap struct {
	// DaemonPIDs maps hostname to daemon process.
	DaemonPIDs map[string]sim.PID
	// NodeOf seeds the location cache (daemon AIDs, SCC).
	NodeOf map[core.AID]string
	// SCCPID lets daemons deliver envelopes addressed to the SCC.
	SCCPID sim.PID
}

// LocalAttach registers the process that sends it, a non-ARMOR process (an
// application linked with the SIFT interface), with its local daemon under
// ID, so envelopes addressed to that pseudo-AID can be delivered. It
// travels as a pointer: an application sends its AppContext's record,
// which holds the rank's ID for every incarnation of the rank.
type LocalAttach struct {
	ID core.AID
}

// Daemon is the per-node gateway process (Section 3.1): it installs ARMOR
// processes on its node, routes ARMOR-to-ARMOR messages, detects crash
// failures of local ARMORs through waitpid, detects hang failures through
// periodic are-you-alive inquiries, and notifies the FTM to initiate
// recovery.
//
// A daemon is itself an ARMOR (it embeds the runtime for its own element
// and liveness handling), but its routing tables are soft state: daemon
// failures are treated as node failures (Section 3.3), so nothing here
// needs checkpointing.
type Daemon struct {
	env  *Environment
	node *sim.Node
	aid  core.AID

	armor *core.Armor

	// localPID maps AIDs of local ARMORs and attached applications to
	// processes.
	localPID map[core.AID]sim.PID
	// nodeOf is the remote location cache.
	nodeOf map[core.AID]string
	// daemonPIDs maps hostnames to peer daemons.
	daemonPIDs map[string]sim.PID
	sccPID     sim.PID

	// children maps locally installed ARMOR processes back to AIDs.
	children map[sim.PID]core.AID
	// expectedDeath suppresses failure notification for intentional
	// kills (reinstall, uninstall).
	expectedDeath map[sim.PID]bool

	// armorEpoch is the highest incarnation epoch this daemon has seen
	// per AID (install specs and location broadcasts); install specs
	// older than it are refused as stale recoveries.
	armorEpoch map[core.AID]uint64
	// localEpoch is the epoch of the locally installed incarnation; a
	// location broadcast binding the AID elsewhere with a higher epoch
	// evicts the local one (split-brain stand-down).
	localEpoch map[core.AID]uint64

	// ayaOutstanding tracks which local ARMORs have not answered the
	// current are-you-alive round.
	ayaOutstanding map[core.AID]bool
	// ayaScratch is ayaRound's reusable list of live local ARMORs.
	ayaScratch []core.AID

	installDelay time.Duration
	ayaPeriod    time.Duration
}

// daemonElem carries the daemon's subscribed behaviour inside the ARMOR
// runtime.
type daemonElem struct {
	d *Daemon
}

type ayaRoundTag struct{}

// NewDaemon constructs the daemon for a node.
func NewDaemon(env *Environment, node *sim.Node, aid core.AID) *Daemon {
	return new(Daemon).Reset(env, node, aid)
}

// Reset re-initialises d as the daemon of node in env, and returns it. It
// is NewDaemon's initialiser; Setup also calls it on the daemon that held
// the same node position in an earlier deployment, whose process is dead:
// the tables are emptied with clear, keeping their buckets, and the ARMOR
// runtime is Reset (core.Armor.Reset). What does not depend on the trial
// is kept: the ARMOR's one element (which holds no state but d), its
// element slice, the method values of its lower layer and hooks, and its
// name when the node's is the same.
func (d *Daemon) Reset(env *Environment, node *sim.Node, aid core.AID) *Daemon {
	d.env, d.node, d.aid = env, node, aid
	if d.localPID == nil {
		d.localPID = make(map[core.AID]sim.PID)
		d.nodeOf = make(map[core.AID]string)
		d.daemonPIDs = make(map[string]sim.PID)
		d.children = make(map[sim.PID]core.AID)
		d.expectedDeath = make(map[sim.PID]bool)
		d.ayaOutstanding = make(map[core.AID]bool)
		d.armorEpoch = make(map[core.AID]uint64)
		d.localEpoch = make(map[core.AID]uint64)
	}
	clear(d.localPID)
	clear(d.nodeOf)
	clear(d.daemonPIDs)
	clear(d.children)
	clear(d.expectedDeath)
	clear(d.ayaOutstanding)
	clear(d.armorEpoch)
	clear(d.localEpoch)
	d.sccPID = sim.NoPID
	d.ayaScratch = d.ayaScratch[:0]
	d.installDelay = env.cfg.InstallDelay
	d.ayaPeriod = env.cfg.DaemonAYAPeriod
	if d.armor == nil {
		d.armor = new(core.Armor)
	}
	kept := d.armor.Config()
	cfg := core.Config{ID: aid, Name: kept.Name, Elements: kept.Elements, SendLower: kept.SendLower,
		OnForward: kept.OnForward, Boxes: &env.boxes, Epoch: env.nextDaemonEpoch(node.Name()),
		OnStaleSender: kept.OnStaleSender}
	if cfg.Elements == nil {
		cfg.Elements = []core.Element{&daemonElem{d: d}}
		cfg.SendLower, cfg.OnForward, cfg.OnStaleSender = d.route, d.forward, d.staleSender
	}
	// Read the node from the name: a kernel Reset renames the node structs
	// it keeps, so a node pointer does not tell.
	if host, ok := strings.CutPrefix(cfg.Name, "daemon-"); !ok || host != node.Name() {
		cfg.Name = "daemon-" + node.Name()
	}
	d.armor.Reset(cfg)
	return d
}

// procName is the name of the daemon's process: its ARMOR's.
func (d *Daemon) procName() string { return d.armor.Config().Name }

// AID returns the daemon's ARMOR ID.
func (d *Daemon) AID() core.AID { return d.aid }

// Epoch returns the daemon's incarnation epoch.
func (d *Daemon) Epoch() uint64 { return d.armor.Epoch() }

// Bootstrap snapshots the daemon's bootstrap-fed tables (peer daemon
// addresses, location cache, SCC address). The recovery tests use it to
// verify a reinstalled daemon received an identical replay.
func (d *Daemon) Bootstrap() DaemonBootstrap {
	pids := make(map[string]sim.PID, len(d.daemonPIDs))
	for host, pid := range d.daemonPIDs {
		pids[host] = pid
	}
	nodeOf := make(map[core.AID]string, len(d.nodeOf))
	for aid, host := range d.nodeOf {
		nodeOf[aid] = host
	}
	return DaemonBootstrap{DaemonPIDs: pids, NodeOf: nodeOf, SCCPID: d.sccPID}
}

// Start implements sim.Handler: a daemon runs as a handler process, so
// routing a message costs the kernel a call, not a coroutine switch.
func (d *Daemon) Start(p *sim.Proc) { d.armor.Start(p) }

// Handle implements sim.Handler. An install addressed to the daemon itself
// sleeps out the install delay mid-dispatch, so it runs on a borrowed
// coroutine (sim.Proc.Block); everything else is handled inline.
func (d *Daemon) Handle(p *sim.Proc, m sim.Msg) {
	switch pl := m.Payload.(type) {
	case DaemonBootstrap:
		for host, pid := range pl.DaemonPIDs {
			d.daemonPIDs[host] = pid
		}
		for aid, host := range pl.NodeOf {
			d.nodeOf[aid] = host
		}
		d.sccPID = pl.SCCPID
	case *LocalAttach:
		d.localPID[pl.ID] = m.From
	case *core.Envelope:
		if pl.Event.Kind == EvInstallArmor && pl.Dst == d.aid && !p.CanBlock() {
			p.Block(m)
			return
		}
		d.armor.Dispatch(p, m)
	default:
		d.armor.Dispatch(p, m)
	}
}

// route transmits envelopes originated by the daemon's own runtime: this
// is where they are boxed from the cluster's free list, once for the whole
// route.
func (d *Daemon) route(p *sim.Proc, env core.Envelope) {
	d.deliver(p, d.env.boxes.Box(env))
}

// forward handles envelopes addressed to other ARMORs (the gateway role).
// The daemon holds the box from here: it sends it on as it arrived, its
// hop count bumped in place, or frees it when the hop limit drops it. A
// sender that may retransmit keeps its own copy.
//
//reesift:noalloc
func (d *Daemon) forward(ctx *core.Ctx, env *core.Envelope) {
	env.Hops++
	if env.Hops > 4 {
		d.env.boxes.Free(env)
		return
	}
	d.deliver(ctx.Proc, env)
}

// deliver resolves the destination AID and sends the envelope on, handing
// the box to the network, or frees it when the destination cannot be
// resolved. An invalid or unknown destination is detected here — at the
// daemon, after the error has already escaped the sending process, which
// is the paper's "detection occurs too late" observation about the
// node_mgmt escape.
//
//reesift:noalloc
func (d *Daemon) deliver(p *sim.Proc, env *core.Envelope) {
	if !env.Dst.Valid() {
		d.env.Log.addArmor(p.Now(), LogInvalidDestination, env.Src)
		d.env.boxes.Free(env)
		return
	}
	if pid, ok := d.localPID[env.Dst]; ok {
		p.Send(pid, env)
		return
	}
	if env.Dst == AIDSCC && d.sccPID != sim.NoPID {
		p.Send(d.sccPID, env)
		return
	}
	if host, ok := d.nodeOf[env.Dst]; ok && host != d.node.Name() {
		if pid, ok := d.daemonPIDs[host]; ok {
			p.Send(pid, env)
			return
		}
	}
	d.env.Log.addArmor(p.Now(), LogUnroutableDestination, env.Dst)
	d.env.boxes.Free(env)
}

// Name implements core.Element.
func (e *daemonElem) Name() string { return "daemon_core" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *daemonElem) Subscriptions() []core.EventKind { return daemonSubscriptions }

var daemonSubscriptions = []core.EventKind{
	EvInstallArmor, EvUninstallArmor, EvLocation,
	core.EventChildExit, core.EventIAmAlive,
}

// Start arms the local are-you-alive round.
func (e *daemonElem) Start(ctx *core.Ctx) {
	ctx.After(e.Name(), e.d.ayaPeriod, ayaRoundTag{})
}

// Handle implements core.Element.
func (e *daemonElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case EvInstallArmor:
		ins, ok := InstallArmorOf(ev)
		if !ok {
			return
		}
		e.d.install(ctx, *ins.Spec)
	case EvUninstallArmor:
		un, ok := UninstallArmorOf(ev)
		if !ok {
			return
		}
		e.d.uninstall(ctx, un.ID)
	case EvLocation:
		loc, ok := LocationOf(ev)
		if !ok {
			return
		}
		e.d.location(ctx, loc)
	case core.EventChildExit:
		ce, ok := ev.Data.(*sim.ChildExit)
		if !ok {
			return
		}
		e.d.childDied(ctx, ce)
	case core.EventIAmAlive:
		delete(e.d.ayaOutstanding, ctx.From)
	case core.EventTimer:
		if _, ok := ev.Data.(ayaRoundTag); ok {
			e.d.ayaRound(ctx)
		}
	}
}

// Snapshot implements core.Element. Daemon state is soft (daemon failure
// is a node failure), so nothing is checkpointed.
//
//reesift:noalloc
func (e *daemonElem) Snapshot() []byte { return nil }

// Restore implements core.Element.
func (e *daemonElem) Restore(data []byte) error { return nil }

// Check implements core.Element.
func (e *daemonElem) Check() error { return nil }

var _ core.Starter = (*daemonElem)(nil)

// location updates the routing cache from an FTM placement broadcast and
// applies the epoch consequences: a higher-epoch binding elsewhere evicts
// a superseded local incarnation (the split-brain stand-down), and a
// lower-epoch binding than already known is stale information and ignored.
func (d *Daemon) location(ctx *core.Ctx, loc Location) {
	if loc.Epoch > 0 && loc.Epoch < d.armorEpoch[loc.ID] {
		return
	}
	d.nodeOf[loc.ID] = loc.Node
	if loc.Epoch == 0 {
		return
	}
	d.armorEpoch[loc.ID] = loc.Epoch
	d.armor.NotePeerEpoch(loc.ID, loc.Epoch)
	if pid, ok := d.localPID[loc.ID]; ok && loc.Node != d.node.Name() && d.localEpoch[loc.ID] < loc.Epoch {
		d.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogArmorStoodDown, id: uint64(loc.ID), n: d.localEpoch[loc.ID],
			ref: &logRef{s: d.node.Name(), s2: loc.Node, n2: loc.Epoch}})
		d.expectedDeath[pid] = true
		ctx.Proc.Kernel().Kill(pid, "superseded epoch")
		delete(d.localPID, loc.ID)
		delete(d.children, pid)
		delete(d.ayaOutstanding, loc.ID)
		delete(d.localEpoch, loc.ID)
	}
}

// staleSender is the daemon's core-runtime hook for envelopes dropped
// because the sending incarnation was superseded — a stale recoverer from
// a healed partition replaying installs or polls through this node. The
// daemon reports it to the FTM, whose location re-broadcast reaches the
// stale incarnation's own node and makes it stand down.
func (d *Daemon) staleSender(ctx *core.Ctx, env core.Envelope) {
	known := d.armor.PeerEpoch(env.Src)
	if ins, ok := InstallArmorOf(env.Event); ok {
		d.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogInstallRefusedStale, id: uint64(ins.Spec.ID), n: env.SrcEpoch,
			flag: true, ref: &logRef{id2: env.Src, n2: known}})
	}
	d.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogStaleSenderDropped, id: uint64(env.Src), n: env.SrcEpoch,
		flag: true, ref: &logRef{s: d.node.Name(), n2: known}})
	ctx.SendEventUnreliable(AIDFTM,
		StaleSender{ID: env.Src, SeenEpoch: env.SrcEpoch, KnownEpoch: known, Node: d.node.Name()}.Event())
}

// install spawns an ARMOR process on this node. Installing over a live
// ARMOR with the same AID kills the old process first (the reinstall
// semantics the Heartbeat ARMOR's false-positive FTM recovery relies on).
// Rather than loading the executable from network storage, the daemon
// copies its own process image — the fork-based trick of Section 3.4 —
// modelled here as a fixed install delay.
func (d *Daemon) install(ctx *core.Ctx, spec ArmorSpec) {
	if spec.Epoch > 0 && spec.Epoch < d.armorEpoch[spec.ID] {
		// A superseded recoverer replaying an old install (or a healed
		// node's placement replay behind the FTM's epoch). Refuse, and
		// report so the FTM re-broadcasts authoritative locations.
		d.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogInstallRefusedStale, id: uint64(spec.ID), n: spec.Epoch,
			ref: &logRef{s: d.node.Name(), n2: d.armorEpoch[spec.ID]}})
		ctx.SendEventUnreliable(AIDFTM,
			StaleSender{ID: spec.ID, SeenEpoch: spec.Epoch, KnownEpoch: d.armorEpoch[spec.ID], Node: d.node.Name()}.Event())
		return
	}
	if old, ok := d.localPID[spec.ID]; ok && ctx.Proc.Kernel().Alive(old) {
		d.expectedDeath[old] = true
		ctx.Proc.Kernel().Kill(old, "reinstall")
	}
	// Fork + element configuration time.
	ctx.Proc.Sleep(d.installDelay)
	armor := d.env.buildArmor(spec, d.node.Name())
	pid := ctx.Proc.SpawnChildHandler(d.node, spec.Name, armor.Handler())
	d.localPID[spec.ID] = pid
	d.children[pid] = spec.ID
	if spec.Epoch > 0 {
		if spec.Epoch > d.armorEpoch[spec.ID] {
			d.armorEpoch[spec.ID] = spec.Epoch
		}
		d.localEpoch[spec.ID] = spec.Epoch
		d.armor.NotePeerEpoch(spec.ID, spec.Epoch)
	}
	d.env.registerArmorProc(spec, armor, pid, d.node.Name())
	d.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogArmorInstalled, id: uint64(spec.ID), n: uint64(spec.Kind), ref: d.env.Log.intern(d.node.Name())})
}

// uninstall removes a local ARMOR cleanly (no failure notification) and
// discards its checkpoint from the store the ARMOR committed it to: the
// node's RAM disk, or the shared file system with SharedCheckpoints. Only
// the runtime this daemon installed discards, never a newer incarnation's.
func (d *Daemon) uninstall(ctx *core.Ctx, id core.AID) {
	pid, ok := d.localPID[id]
	if !ok {
		return
	}
	d.expectedDeath[pid] = true
	ctx.Proc.Kernel().Kill(pid, "uninstall")
	delete(d.localPID, id)
	delete(d.localEpoch, id)
	if d.env.ProcOf(id) == pid {
		if ck := d.env.ArmorOf(id).Checkpoint(); ck != nil {
			ck.Discard()
		}
	}
	d.env.Log.addArmor(ctx.Now(), LogArmorUninstalled, id)
}

// childDied is the waitpid path: crash failures of local ARMORs are
// detected essentially immediately.
func (d *Daemon) childDied(ctx *core.Ctx, ce *sim.ChildExit) {
	aid, ok := d.children[ce.Child]
	if !ok {
		return
	}
	delete(d.children, ce.Child)
	delete(d.ayaOutstanding, aid)
	if d.localPID[aid] == ce.Child {
		delete(d.localPID, aid)
	}
	if d.expectedDeath[ce.Child] {
		delete(d.expectedDeath, ce.Child)
		return
	}
	d.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogArmorCrashDetected, id: uint64(aid), ref: d.env.Log.intern(ce.Reason)})
	if aid != AIDFTM {
		// FTM failures are detected *and acted on* solely by the
		// Heartbeat ARMOR; the daemon's waitpid observation is not the
		// acting detection, so it does not open the recovery window.
		d.env.Log.Detect(ctx.Now(), aid, ce.Reason, false)
	}
	d.notifyFailure(ctx, aid, false, ce.Reason)
}

// ayaRound sends are-you-alive inquiries to the local ARMORs and kills any
// that did not answer the previous round (hang detection).
func (d *Daemon) ayaRound(ctx *core.Ctx) {
	// Collect AIDs deterministically.
	aids := d.ayaScratch[:0]
	for pid, aid := range d.children {
		if ctx.Proc.Kernel().Alive(pid) {
			aids = append(aids, aid)
		}
	}
	slices.Sort(aids)
	d.ayaScratch = aids
	for _, aid := range aids {
		if d.ayaOutstanding[aid] {
			// No reply since last round: hang failure. Kill the
			// process so its state is gone, then recover it.
			pid := d.localPID[aid]
			d.env.Log.addArmor(ctx.Now(), LogArmorHangDetected, aid)
			if aid != AIDFTM {
				d.env.Log.Detect(ctx.Now(), aid, "hang", true)
			}
			d.expectedDeath[pid] = true
			ctx.Proc.Kernel().Kill(pid, "hang recovery")
			delete(d.localPID, aid)
			delete(d.children, pid)
			delete(d.ayaOutstanding, aid)
			d.notifyFailure(ctx, aid, true, "hang")
			continue
		}
		d.ayaOutstanding[aid] = true
		ctx.SendUnreliable(aid, core.EventAreYouAlive, nil)
	}
	ctx.After("daemon_core", d.ayaPeriod, ayaRoundTag{})
}

// notifyFailure reports a failed local ARMOR to the FTM — unless the
// failed ARMOR *is* the FTM, whose failures are detected solely by the
// Heartbeat ARMOR (Section 5.3).
func (d *Daemon) notifyFailure(ctx *core.Ctx, aid core.AID, hang bool, reason string) {
	if aid == AIDFTM {
		return
	}
	ctx.SendEvent(AIDFTM, ArmorFailed{ID: aid, Hang: hang, Reason: reason}.Event())
}
