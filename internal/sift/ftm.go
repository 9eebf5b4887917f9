package sift

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"reesift/internal/core"
)

// Well-known ARMOR IDs. Everything else is derived deterministically.
const (
	AIDFTM       core.AID = 1
	AIDHeartbeat core.AID = 2
	// AIDSCC sits far above every derived range (daemons from 10,
	// Execution ARMORs from 1000, application pseudo-AIDs from 5000) so
	// even a 1000-node cluster cannot collide a daemon AID with it.
	AIDSCC core.AID = 1 << 20
)

// AIDDaemon returns the AID of the daemon on the i-th node. The range
// starts at 10 and must stay below AIDExec's floor of 1000+100*app for
// the smallest submitted AppID, which caps clusters at about a thousand
// nodes — comfortably past the scale scenario's largest tier.
func AIDDaemon(i int) core.AID { return core.AID(10 + i) }

// AIDExec returns the Execution ARMOR AID for an application rank.
func AIDExec(app AppID, rank int) core.AID {
	return core.AID(1000 + 100*uint64(app) + uint64(rank))
}

// AIDApp returns the pseudo-AID under which an application process
// attaches to the SIFT communication fabric.
func AIDApp(app AppID, rank int) core.AID {
	return core.AID(5000 + 100*uint64(app) + uint64(rank))
}

// Limits of the checkpointed records. Restore rejects a table longer than
// its bound as corrupt, Check asserts the per-record ranges, and the
// façade refuses a cluster or an application that would cross them.
const (
	MaxNodes    = 1024 // node_mgmt records: the cluster's nodes
	MaxHostname = 64   // bytes in a hostname
	MaxRanks    = 64   // ranks of an application: one bit each in mgr_app_detect's masks
	MaxAppNodes = 64   // node hints of an application
	MaxApps     = 1024 // app_param and mgr_app_detect records
	MaxArmors   = 4096 // mgr_armor_info and exec_armor_info records
)

// Armor status values tracked in mgr_armor_info.
const (
	statusInstalling int64 = iota + 1
	statusUp
	statusFailed
	statusRecovering
)

// FTMConfig tunes the Fault Tolerance Manager.
type FTMConfig struct {
	// HeartbeatPeriod is the FTM-to-daemon are-you-alive period
	// (10 s in the paper's experiments; swept in Table 5).
	HeartbeatPeriod time.Duration
	// FixRegistrationRace controls the Figure 10 bug: when false, the
	// FTM registers a subordinate ARMOR only after the install
	// acknowledgment arrives, so an early failure notification races
	// the registration and the ARMOR is never recovered. The shipped
	// configuration registers before instructing the daemon (true).
	FixRegistrationRace bool
	// HeartbeatNode is the hostname on which the FTM installs the
	// Heartbeat ARMOR once that node's daemon registers. It must differ
	// from the FTM's node to tolerate single-node failures.
	HeartbeatNode string
	// HeartbeatArmorPeriod is the Heartbeat-ARMOR-to-FTM polling period
	// carried in the Heartbeat ARMOR's install spec.
	HeartbeatArmorPeriod time.Duration
	// SCC is the AID the FTM reports application status to.
	SCC core.AID
}

// FTM aggregates the five heap-injectable elements of Table 8 plus the
// recovery and SCC-interface logic that spans them. The elements share the
// struct (they are co-located in one process) but snapshot and checkpoint
// independently.
type FTM struct {
	env *Environment
	cfg FTMConfig

	NodeMgmt  *NodeMgmtElem
	ArmorInfo *MgrArmorInfoElem
	ExecInfo  *ExecArmorInfoElem
	AppParam  *AppParamElem
	AppDetect *MgrAppDetectElem

	// reconciledAt throttles stale-sender location re-broadcasts.
	// Deliberately soft (not element state): losing it across a restore
	// costs at most one extra re-broadcast round.
	reconciledAt time.Duration

	// scopeNodes and scope are submitScope's reusable storage: the
	// submission's host names, and per NodeMgmt.Nodes entry whether it is
	// one of them.
	scopeNodes map[string]bool
	scope      []bool
}

// NewFTM builds the element set for a Fault Tolerance Manager.
func NewFTM(env *Environment, cfg FTMConfig) *FTM {
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 10 * time.Second
	}
	if !cfg.SCC.Valid() {
		cfg.SCC = AIDSCC
	}
	f := &FTM{env: env, cfg: cfg}
	f.NodeMgmt = core.Checkpointed(&NodeMgmtElem{ftm: f})
	f.ArmorInfo = core.Checkpointed(&MgrArmorInfoElem{ftm: f})
	f.ExecInfo = core.Checkpointed(&ExecArmorInfoElem{ftm: f})
	f.AppParam = core.Checkpointed(&AppParamElem{ftm: f})
	f.AppDetect = core.Checkpointed(&MgrAppDetectElem{ftm: f})
	return f
}

// Elements returns the FTM's element list in delivery order.
func (f *FTM) Elements() []core.Element {
	return []core.Element{f.NodeMgmt, f.ArmorInfo, f.ExecInfo, f.AppParam, f.AppDetect}
}

// ---------------------------------------------------------------------------
// node_mgmt: node table, hostname-to-daemon translation, daemon heartbeats.
// ---------------------------------------------------------------------------

type nodeRec struct {
	Hostname  string
	DaemonAID core.AID
	Alive     bool
	// AwaitingReply is true while a heartbeat reply is outstanding.
	AwaitingReply bool
	Missed        int64
	// Epoch is the daemon incarnation epoch carried by the registration:
	// 1 at first boot, higher after boot-agent reinstalls.
	Epoch uint64
}

// NodeMgmtElem stores information about the nodes, including the resident
// daemon and hostname (Table 8). It translates hostnames to daemon IDs;
// per the paper, a failed translation yields the default daemon ID of
// zero, and the FTM "currently does not check to make sure that the
// returned daemon ID is nonzero" — the corruption escape route that caused
// 14 of the element's 17 assertion-detected errors to become system
// failures.
type NodeMgmtElem struct {
	core.Schema[NodeMgmtElem, *NodeMgmtElem]
	ftm   *FTM
	Nodes []nodeRec
}

// Fields declares node_mgmt's checkpointed state: the node table.
func (e *NodeMgmtElem) Fields(c *core.Codec) {
	for i := range core.Rows(c, &e.Nodes, MaxNodes, "nodes") {
		e.Nodes[i].Fields(c.Row(i))
	}
}

// Fields is a node record's layout. Hostname bytes and daemon AIDs are
// the element's dynamic data; both were "repeatedly written to during the
// initialization phases" in the paper and were the most sensitive to
// propagation.
func (r *nodeRec) Fields(c *core.Codec) {
	core.Str(c, &r.Hostname, core.Heap(1, "hostname", 64))
	core.U64(c, &r.DaemonAID, core.Heap(0, "daemonAID", 16)) // small IDs: flips stay in a plausible range
	core.Bool(c, &r.Alive)
	core.Bool(c, &r.AwaitingReply)
	core.I64(c, &r.Missed, core.NoHeap)
	core.U64(c, &r.Epoch, core.NoHeap)
}

type hbRoundTag struct{}

// Name implements core.Element.
func (e *NodeMgmtElem) Name() string { return "node_mgmt" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *NodeMgmtElem) Subscriptions() []core.EventKind { return nodeMgmtSubscriptions }

var nodeMgmtSubscriptions = []core.EventKind{EvRegisterDaemon, core.EventIAmAlive}

// Start arms the daemon heartbeat round timer.
func (e *NodeMgmtElem) Start(ctx *core.Ctx) {
	ctx.After(e.Name(), e.ftm.cfg.HeartbeatPeriod, hbRoundTag{})
}

// Handle implements core.Element.
func (e *NodeMgmtElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case EvRegisterDaemon:
		reg, ok := ev.Data.(RegisterDaemon)
		if !ok {
			return
		}
		e.register(ctx, reg)
	case core.EventIAmAlive:
		// A daemon answered this round's heartbeat.
		for i := range e.Nodes {
			if e.Nodes[i].DaemonAID == ctx.From {
				e.Nodes[i].AwaitingReply = false
				e.Nodes[i].Missed = 0
			}
		}
	case core.EventTimer:
		if _, ok := ev.Data.(hbRoundTag); ok {
			e.heartbeatRound(ctx)
		}
	}
}

func (e *NodeMgmtElem) register(ctx *core.Ctx, reg RegisterDaemon) {
	for i := range e.Nodes {
		n := &e.Nodes[i]
		if n.Hostname != reg.Hostname {
			continue
		}
		// Re-registration after a node restart: revive the record so
		// heartbeat rounds and hostname translation resume, and clear
		// any inquiry outstanding toward the dead daemon incarnation
		// (it would otherwise declare the fresh node failed). The
		// Heartbeat ARMOR is not reinstalled here — if it lived on this
		// node and died, the SCC's placement table (or a completed
		// migration) already covers it.
		n.DaemonAID = reg.DaemonAID
		n.Alive = true
		n.AwaitingReply = false
		n.Missed = 0
		if reg.Epoch > n.Epoch {
			n.Epoch = reg.Epoch
		}
		e.ftm.ArmorInfo.recordArmor(reg.DaemonAID, KindDaemon, reg.Hostname, statusUp)
		ctx.Touch(e.ftm.ArmorInfo)
		e.ftm.env.Log.addNode(ctx.Now(), LogDaemonRebound, reg.Hostname)
		return
	}
	e.Nodes = append(e.Nodes, nodeRec{Hostname: reg.Hostname, DaemonAID: reg.DaemonAID, Alive: true, Epoch: reg.Epoch})
	e.ftm.ArmorInfo.recordArmor(reg.DaemonAID, KindDaemon, reg.Hostname, statusUp)
	ctx.Touch(e.ftm.ArmorInfo)
	e.ftm.env.Log.addNode(ctx.Now(), LogDaemonRegistered, reg.Hostname)
	if reg.Hostname == e.ftm.cfg.HeartbeatNode {
		// Table 1, step 1c: install the Heartbeat ARMOR through this
		// node's daemon.
		epoch := e.ftm.initialEpoch()
		spec := ArmorSpec{
			ID:              AIDHeartbeat,
			Kind:            KindHeartbeat,
			Name:            "heartbeat",
			NotifyInstalled: AIDFTM,
			Epoch:           epoch,
		}
		e.ftm.ArmorInfo.recordArmor(AIDHeartbeat, KindHeartbeat, reg.Hostname, statusInstalling)
		e.ftm.ArmorInfo.setEpoch(AIDHeartbeat, epoch)
		ctx.Touch(e.ftm.ArmorInfo)
		ctx.Send(reg.DaemonAID, EvInstallArmor, InstallArmor{Spec: spec})
	}
}

// heartbeatRound sends are-you-alive to every registered daemon and
// declares nodes whose previous inquiry went unanswered failed.
func (e *NodeMgmtElem) heartbeatRound(ctx *core.Ctx) {
	for i := range e.Nodes {
		n := &e.Nodes[i]
		if !n.Alive {
			continue
		}
		if n.AwaitingReply {
			n.Missed++
			// "If the FTM does not receive a response by the next
			// heartbeat round, it assumes that the node has failed."
			n.Alive = false
			e.ftm.env.Log.addNode(ctx.Now(), LogNodeDeclaredFailed, n.Hostname)
			e.ftm.recoverNode(ctx, n.Hostname)
			continue
		}
		n.AwaitingReply = true
		ctx.SendUnreliable(n.DaemonAID, core.EventAreYouAlive, nil)
	}
	ctx.After(e.Name(), e.ftm.cfg.HeartbeatPeriod, hbRoundTag{})
}

// Translate maps a hostname to its daemon AID, returning the default
// daemon ID of zero when the lookup fails (faithfully reproducing the
// paper's escape).
func (e *NodeMgmtElem) Translate(hostname string) core.AID {
	for _, n := range e.Nodes {
		if n.Hostname == hostname {
			return n.DaemonAID
		}
	}
	return core.InvalidAID
}

// FirstAliveNode returns a live hostname other than exclude, for
// migration.
func (e *NodeMgmtElem) FirstAliveNode(exclude string) string {
	for _, n := range e.Nodes {
		if n.Alive && n.Hostname != exclude {
			return n.Hostname
		}
	}
	return ""
}

// Check implements core.Element: hostnames must be non-empty and daemon
// IDs valid for registered nodes. (A corrupted hostname *string content*
// is not detectable — no assertion can know what a hostname should spell —
// which is how node_mgmt data errors escape as translation misses.)
func (e *NodeMgmtElem) Check() error {
	for i, n := range e.Nodes {
		if len(n.Hostname) == 0 || len(n.Hostname) > MaxHostname {
			return fmt.Errorf("node %d: hostname length %d", i, len(n.Hostname))
		}
		if n.DaemonAID == core.InvalidAID {
			return fmt.Errorf("node %d (%s): zero daemon ID", i, n.Hostname)
		}
		if n.Missed < 0 || n.Missed > 100 {
			return fmt.Errorf("node %d: missed count %d", i, n.Missed)
		}
	}
	return nil
}

var _ core.Starter = (*NodeMgmtElem)(nil)

// ---------------------------------------------------------------------------
// mgr_armor_info: subordinate ARMOR registry and recovery.
// ---------------------------------------------------------------------------

type armorRec struct {
	ID     core.AID
	Kind   int64
	Node   string
	Status int64
	// Epoch is the incarnation epoch of the ARMOR the FTM believes is
	// (or is becoming) live: set at first install, bumped on every
	// failure declaration before the replacement is installed. Zero when
	// epoching is disabled. Checkpoint-encoded: an FTM that restores
	// after its own failure must not re-stamp old epochs, or daemons
	// would refuse its subsequent legitimate installs as stale.
	Epoch uint64
}

// MgrArmorInfoElem stores information about subordinate ARMORs such as
// location and composition (Table 8), and drives their recovery.
type MgrArmorInfoElem struct {
	core.Schema[MgrArmorInfoElem, *MgrArmorInfoElem]
	ftm  *FTM
	Recs []armorRec
}

// Fields declares mgr_armor_info's checkpointed state: the ARMOR table.
func (e *MgrArmorInfoElem) Fields(c *core.Codec) {
	for i := range core.Rows(c, &e.Recs, MaxArmors, "records") {
		e.Recs[i].Fields(c.Row(i))
	}
}

func (r *armorRec) Fields(c *core.Codec) {
	core.U64(c, &r.ID, core.Heap(0, "id", 16))
	core.I64(c, &r.Kind, core.NoHeap)
	core.Str(c, &r.Node, core.Heap(2, "node", 64))
	core.I64(c, &r.Status, core.Heap(1, "status", 8))
	core.U64(c, &r.Epoch, core.NoHeap)
}

// Name implements core.Element.
func (e *MgrArmorInfoElem) Name() string { return "mgr_armor_info" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *MgrArmorInfoElem) Subscriptions() []core.EventKind { return armorInfoSubscriptions }

var armorInfoSubscriptions = []core.EventKind{core.EventInstalled, EvArmorFailed, EvStaleSender}

// Handle implements core.Element.
func (e *MgrArmorInfoElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case core.EventInstalled:
		ack, ok := ev.Data.(core.InstallAck)
		if !ok {
			return
		}
		e.markUp(ctx, ack.ID)
	case EvArmorFailed:
		fail, ok := ev.Data.(ArmorFailed)
		if !ok {
			return
		}
		e.recover(ctx, fail)
	case EvStaleSender:
		rep, ok := ev.Data.(StaleSender)
		if !ok {
			return
		}
		e.ftm.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogStaleSenderReported, id: uint64(rep.ID), n: rep.SeenEpoch,
			ref: &logRef{s: rep.Node, n2: rep.KnownEpoch}})
		e.ftm.reconcile(ctx)
	}
}

func (e *MgrArmorInfoElem) find(id core.AID) *armorRec {
	for i := range e.Recs {
		if e.Recs[i].ID == id {
			return &e.Recs[i]
		}
	}
	return nil
}

// recordArmor registers a subordinate ARMOR. With the Figure 10 fix this
// happens *before* the install instruction is sent.
func (e *MgrArmorInfoElem) recordArmor(id core.AID, kind ArmorKind, node string, status int64) {
	if r := e.find(id); r != nil {
		r.Kind, r.Node, r.Status = int64(kind), node, status
		return
	}
	e.Recs = append(e.Recs, armorRec{ID: id, Kind: int64(kind), Node: node, Status: status})
}

// setEpoch records an ARMOR's incarnation epoch in the FTM's table.
// Deliberately NOT taught to the FTM's own stale-sender gate: receivers
// learn peer epochs only from authoritative receipts (envelope stamps,
// install specs, location broadcasts), so in-flight traffic from a
// just-killed incarnation drains normally instead of being rejected. A
// genuinely live duplicate (split brain) keeps sending long after the
// receipts land, and is caught then.
func (e *MgrArmorInfoElem) setEpoch(id core.AID, epoch uint64) {
	if epoch == 0 {
		return
	}
	if r := e.find(id); r != nil {
		r.Epoch = epoch
	}
}

// bumpEpoch advances an ARMOR's incarnation epoch on a failure
// declaration: the incarnation about to be installed supersedes every
// earlier one. No-op when epoching is disabled (rec epoch zero).
func (e *MgrArmorInfoElem) bumpEpoch(r *armorRec) {
	if r.Epoch == 0 {
		return
	}
	r.Epoch++
}

func (e *MgrArmorInfoElem) markUp(ctx *core.Ctx, id core.AID) {
	r := e.find(id)
	if r == nil {
		// Figure 10(b): an install acknowledgment for an ARMOR the FTM
		// has no record of. With the race fix enabled this cannot
		// happen; without it, register now (too late for any failure
		// notification that already arrived).
		e.recordArmor(id, KindExecution, "", statusUp)
		r = e.find(id)
	}
	wasRecovering := r.Status == statusRecovering
	r.Status = statusUp
	e.ftm.env.Log.addArmor(ctx.Now(), LogArmorUp, id)
	if !wasRecovering {
		e.ftm.onArmorInstalled(ctx, id)
	}
}

// recover handles a daemon's failure notification for a local ARMOR.
func (e *MgrArmorInfoElem) recover(ctx *core.Ctx, fail ArmorFailed) {
	r := e.find(fail.ID)
	if r == nil {
		// Figure 10(b): no record of this ARMOR — the notification
		// thread aborts and the ARMOR is never recovered.
		e.ftm.env.Log.addArmor(ctx.Now(), LogFailureNotificationAborted, fail.ID)
		return
	}
	r.Status = statusRecovering
	e.bumpEpoch(r)
	spec := e.ftm.rebuildSpec(r)
	if spec == nil {
		return
	}
	daemon := e.ftm.NodeMgmt.Translate(r.Node)
	// Faithful to the paper: no check that daemon != 0. A corrupted
	// node_mgmt translation escapes here and is detected only by the
	// FTM's local daemon as an invalid destination — too late.
	ctx.Send(daemon, EvInstallArmor, InstallArmor{Spec: *spec})
	e.ftm.env.Log.addArmor(ctx.Now(), LogArmorRecoveryInitiated, fail.ID)
}

// Check implements core.Element.
func (e *MgrArmorInfoElem) Check() error {
	for i, r := range e.Recs {
		if r.ID == core.InvalidAID {
			return fmt.Errorf("record %d: zero ARMOR ID", i)
		}
		if r.Kind < int64(KindFTM) || r.Kind > int64(KindDaemon) {
			return fmt.Errorf("record %d: kind %d out of range", i, r.Kind)
		}
		if r.Status < statusInstalling || r.Status > statusRecovering {
			return fmt.Errorf("record %d: status %d out of range", i, r.Status)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// exec_armor_info: Execution ARMOR to application bindings.
// ---------------------------------------------------------------------------

type execRec struct {
	ArmorID core.AID
	App     uint64
	Rank    int64
	Node    string
	// AppStatus: 1 launching, 2 running, 3 completed, 4 failed.
	AppStatus int64
}

// ExecArmorInfoElem stores information about each Execution ARMOR such as
// the status of the subordinate application (Table 8).
type ExecArmorInfoElem struct {
	core.Schema[ExecArmorInfoElem, *ExecArmorInfoElem]
	ftm  *FTM
	Recs []execRec
	// byAppScratch is byApp's reusable result; it is not checkpointed.
	byAppScratch []execRec
}

// Fields declares exec_armor_info's checkpointed state: the binding table.
func (e *ExecArmorInfoElem) Fields(c *core.Codec) {
	for i := range core.Rows(c, &e.Recs, MaxArmors, "records") {
		e.Recs[i].Fields(c.Row(i))
	}
}

func (r *execRec) Fields(c *core.Codec) {
	core.U64(c, &r.ArmorID, core.Heap(0, "armorID", 16))
	core.U64(c, &r.App, core.NoHeap)
	core.I64(c, &r.Rank, core.Heap(1, "rank", 8))
	core.Str(c, &r.Node, core.NoHeap)
	core.I64(c, &r.AppStatus, core.Heap(2, "appStatus", 8))
}

// Name implements core.Element.
func (e *ExecArmorInfoElem) Name() string { return "exec_armor_info" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *ExecArmorInfoElem) Subscriptions() []core.EventKind { return execInfoSubscriptions }

var execInfoSubscriptions = []core.EventKind{EvAppPIDs}

// Handle implements core.Element: forwards rank PIDs from the rank-0
// process to the Execution ARMORs overseeing ranks 1..n-1 (Table 1,
// step 6-7).
func (e *ExecArmorInfoElem) Handle(ctx *core.Ctx, ev core.Event) {
	pids, ok := ev.Data.(AppPIDs)
	if !ok {
		return
	}
	ranks := make([]int, 0, len(pids.PIDs))
	for rank := range pids.PIDs {
		ranks = append(ranks, rank)
	}
	slices.Sort(ranks)
	for _, rank := range ranks {
		if rank == 0 {
			continue
		}
		for _, r := range e.Recs {
			if r.App == uint64(pids.AppID) && r.Rank == int64(rank) {
				ctx.Send(r.ArmorID, EvAppPID, AppPID{AppID: pids.AppID, Rank: rank, PID: pids.PIDs[rank]})
			}
		}
	}
}

func (e *ExecArmorInfoElem) add(rec execRec) {
	for i := range e.Recs {
		if e.Recs[i].ArmorID == rec.ArmorID {
			e.Recs[i] = rec
			return
		}
	}
	e.Recs = append(e.Recs, rec)
}

// byApp returns the records of app's ranks in rank order. The result is
// the element's scratch slice: valid until the next byApp call.
func (e *ExecArmorInfoElem) byApp(app AppID) []execRec {
	out := e.byAppScratch[:0]
	for _, r := range e.Recs {
		if r.App == uint64(app) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b execRec) int { return cmp.Compare(a.Rank, b.Rank) })
	e.byAppScratch = out
	return out
}

func (e *ExecArmorInfoElem) removeApp(app AppID) {
	kept := e.Recs[:0]
	for _, r := range e.Recs {
		if r.App != uint64(app) {
			kept = append(kept, r)
		}
	}
	e.Recs = kept
}

// Check implements core.Element.
func (e *ExecArmorInfoElem) Check() error {
	for i, r := range e.Recs {
		if r.ArmorID == core.InvalidAID {
			return fmt.Errorf("record %d: zero ARMOR ID", i)
		}
		if r.Rank < 0 || r.Rank >= MaxRanks {
			return fmt.Errorf("record %d: rank %d out of range", i, r.Rank)
		}
		if r.AppStatus < 0 || r.AppStatus > 4 {
			return fmt.Errorf("record %d: app status %d", i, r.AppStatus)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// app_param: submitted application parameters.
// ---------------------------------------------------------------------------

type appRec struct {
	App      uint64
	Name     string
	Ranks    int64
	Restarts int64
	Nodes    []string
}

// AppParamElem stores information about applications such as executable
// name, command-line arguments, and number of restarts (Table 8). In the
// paper's experiments this element's data was substantially read-only
// after submission, which is why none of its corruptions caused system
// failures.
type AppParamElem struct {
	core.Schema[AppParamElem, *AppParamElem]
	ftm  *FTM
	Recs []appRec
}

// Fields declares app_param's checkpointed state: the application table.
func (e *AppParamElem) Fields(c *core.Codec) {
	for i := range core.Rows(c, &e.Recs, MaxApps, "records") {
		e.Recs[i].Fields(c.Row(i))
	}
}

func (r *appRec) Fields(c *core.Codec) {
	core.U64(c, &r.App, core.NoHeap)
	core.Str(c, &r.Name, core.Heap(1, "name", 64))
	core.I64(c, &r.Ranks, core.NoHeap)
	core.I64(c, &r.Restarts, core.Heap(0, "restarts", 8))
	for i := range core.Rows(c, &r.Nodes, MaxAppNodes, "nodes") {
		core.Str(c, &r.Nodes[i], core.NoHeap)
	}
}

// Name implements core.Element.
func (e *AppParamElem) Name() string { return "app_param" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *AppParamElem) Subscriptions() []core.EventKind { return nil }

// Handle implements core.Element.
func (e *AppParamElem) Handle(ctx *core.Ctx, ev core.Event) {}

func (e *AppParamElem) find(app AppID) *appRec {
	for i := range e.Recs {
		if e.Recs[i].App == uint64(app) {
			return &e.Recs[i]
		}
	}
	return nil
}

func (e *AppParamElem) add(app *AppSpec) {
	if e.find(app.ID) != nil {
		return
	}
	nodes := make([]string, len(app.Nodes))
	copy(nodes, app.Nodes)
	e.Recs = append(e.Recs, appRec{
		App:   uint64(app.ID),
		Name:  app.Name,
		Ranks: int64(app.Ranks),
		Nodes: nodes,
	})
}

// Check implements core.Element.
func (e *AppParamElem) Check() error {
	for i, r := range e.Recs {
		if r.Ranks < 1 || r.Ranks > MaxRanks {
			return fmt.Errorf("record %d: ranks %d", i, r.Ranks)
		}
		if r.Restarts < 0 || r.Restarts > 1000 {
			return fmt.Errorf("record %d: restarts %d", i, r.Restarts)
		}
		if len(r.Name) == 0 {
			return fmt.Errorf("record %d: empty name", i)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// mgr_app_detect: application completion detection and recovery.
// ---------------------------------------------------------------------------

type detectRec struct {
	App        uint64
	Ranks      int64
	Completed  uint64 // bitmask of completed ranks
	Recovering bool
	KillsLeft  uint64 // bitmask of ranks whose kill-ack is pending
	Done       bool
}

// MgrAppDetectElem detects that all processes of an MPI application have
// terminated and initiates recovery if necessary (Table 8).
type MgrAppDetectElem struct {
	core.Schema[MgrAppDetectElem, *MgrAppDetectElem]
	ftm  *FTM
	Recs []detectRec
}

// Fields declares mgr_app_detect's checkpointed state: the detection table.
func (e *MgrAppDetectElem) Fields(c *core.Codec) {
	for i := range core.Rows(c, &e.Recs, MaxApps, "records") {
		e.Recs[i].Fields(c.Row(i))
	}
}

func (r *detectRec) Fields(c *core.Codec) {
	core.U64(c, &r.App, core.NoHeap)
	core.I64(c, &r.Ranks, core.Heap(1, "ranks", 8))
	core.U64(c, &r.Completed, core.Heap(0, "completed", 8))
	core.Bool(c, &r.Recovering)
	core.U64(c, &r.KillsLeft, core.NoHeap)
	core.Bool(c, &r.Done)
}

// Name implements core.Element.
func (e *MgrAppDetectElem) Name() string { return "mgr_app_detect" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *MgrAppDetectElem) Subscriptions() []core.EventKind { return appDetectSubscriptions }

var appDetectSubscriptions = []core.EventKind{EvAppComplete, EvAppFailed, EvKillAppDone}

func (e *MgrAppDetectElem) find(app AppID) *detectRec {
	for i := range e.Recs {
		if e.Recs[i].App == uint64(app) {
			return &e.Recs[i]
		}
	}
	return nil
}

func (e *MgrAppDetectElem) add(app AppID, ranks int) {
	if e.find(app) != nil {
		return
	}
	e.Recs = append(e.Recs, detectRec{App: uint64(app), Ranks: int64(ranks)})
}

// Handle implements core.Element.
func (e *MgrAppDetectElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case EvAppComplete:
		done, ok := ev.Data.(AppComplete)
		if !ok {
			return
		}
		e.complete(ctx, done)
	case EvAppFailed:
		fail, ok := ev.Data.(AppFailed)
		if !ok {
			return
		}
		e.appFailed(ctx, fail)
	case EvKillAppDone:
		ack, ok := ev.Data.(KillAppDone)
		if !ok {
			return
		}
		e.killAck(ctx, ack)
	}
}

func (e *MgrAppDetectElem) complete(ctx *core.Ctx, done AppComplete) {
	r := e.find(done.AppID)
	if r == nil || r.Done {
		return
	}
	r.Completed |= 1 << uint(done.Rank)
	all := uint64(1)<<uint(r.Ranks) - 1
	if r.Completed != all {
		return
	}
	// Upon receiving all termination notifications, the FTM uninstalls
	// the Execution ARMORs and reports to the SCC (Table 1, step 13).
	r.Done = true
	e.ftm.finishApp(ctx, done.AppID)
}

func (e *MgrAppDetectElem) appFailed(ctx *core.Ctx, fail AppFailed) {
	r := e.find(fail.AppID)
	if r == nil || r.Done || r.Recovering {
		return
	}
	r.Recovering = true
	r.Completed = 0
	e.ftm.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogAppFailureReported, id: uint64(fail.AppID), rank: int32(fail.Rank),
		flag: fail.Hang, ref: e.ftm.env.Log.intern(fail.Reason)})
	// Kill every rank, then relaunch through the rank-0 Execution ARMOR.
	execs := e.ftm.ExecInfo.byApp(fail.AppID)
	r.KillsLeft = 0
	for _, ex := range execs {
		r.KillsLeft |= 1 << uint(ex.Rank)
		ctx.Send(ex.ArmorID, EvKillApp, KillApp{AppID: fail.AppID})
	}
	if len(execs) == 0 {
		r.Recovering = false
	}
}

func (e *MgrAppDetectElem) killAck(ctx *core.Ctx, ack KillAppDone) {
	r := e.find(ack.AppID)
	if r == nil || !r.Recovering {
		return
	}
	r.KillsLeft &^= 1 << uint(ack.Rank)
	if r.KillsLeft != 0 {
		return
	}
	r.Recovering = false
	if p := e.ftm.AppParam.find(ack.AppID); p != nil {
		p.Restarts++
		ctx.Touch(e.ftm.AppParam)
	}
	// The relaunched application processes number their messages from
	// one again; forget the dead incarnation's channels.
	for rank := int64(0); rank < r.Ranks; rank++ {
		ctx.Armor.ResetPeer(AIDApp(ack.AppID, int(rank)))
	}
	for _, ex := range e.ftm.ExecInfo.byApp(ack.AppID) {
		if ex.Rank == 0 {
			restarts := int64(0)
			if p := e.ftm.AppParam.find(ack.AppID); p != nil {
				restarts = p.Restarts
			}
			ctx.Send(ex.ArmorID, EvLaunchApp, LaunchApp{AppID: ack.AppID, Restart: int(restarts)})
		}
	}
	e.ftm.env.Log.addApp(ctx.Now(), LogAppRestartInitiated, ack.AppID, 0, 0)
}

// Check implements core.Element. Besides range checks, the rank count is
// cross-validated against app_param — a data-structure integrity check
// between co-located elements. This is what kept mgr_app_detect's data
// errors from ever causing system failures in the paper (Table 8: zero
// across all phases; Table 9: every detected error recovered).
func (e *MgrAppDetectElem) Check() error {
	for i, r := range e.Recs {
		if r.Ranks < 1 || r.Ranks > MaxRanks {
			return fmt.Errorf("record %d: ranks %d", i, r.Ranks)
		}
		if p := e.ftm.AppParam.find(AppID(r.App)); p != nil && p.Ranks != r.Ranks {
			return fmt.Errorf("record %d: rank count %d disagrees with app_param (%d)", i, r.Ranks, p.Ranks)
		}
		all := uint64(1)<<uint(r.Ranks) - 1
		if r.Completed&^all != 0 {
			return fmt.Errorf("record %d: completed mask %x beyond rank count", i, r.Completed)
		}
		if r.KillsLeft&^all != 0 {
			return fmt.Errorf("record %d: kill mask %x beyond rank count", i, r.KillsLeft)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// FTM cross-element orchestration.
// ---------------------------------------------------------------------------

// submitElem is a thin element that receives SCC submissions and drives
// the cross-element submission flow.
type submitElem struct {
	ftm *FTM
}

// Name implements core.Element.
func (e *submitElem) Name() string { return "scc_interface" }

// Subscriptions implements core.Element.
//
//reesift:noalloc
func (e *submitElem) Subscriptions() []core.EventKind { return submitSubscriptions }

var submitSubscriptions = []core.EventKind{EvSubmitApp}

// Handle implements core.Element.
func (e *submitElem) Handle(ctx *core.Ctx, ev core.Event) {
	sub, ok := ev.Data.(SubmitApp)
	if !ok {
		return
	}
	e.ftm.submit(ctx, sub.App)
}

// Snapshot implements core.Element.
//
//reesift:noalloc
func (e *submitElem) Snapshot() []byte { return nil }

// Restore implements core.Element.
func (e *submitElem) Restore(data []byte) error { return nil }

// Check implements core.Element.
func (e *submitElem) Check() error { return nil }

// submit runs Table 1 steps 2-3: record the application and install one
// Execution ARMOR per prospective MPI process.
func (f *FTM) submit(ctx *core.Ctx, app *AppSpec) {
	if f.AppParam.find(app.ID) != nil {
		return // duplicate submission
	}
	f.AppParam.add(app)
	ctx.Touch(f.AppParam)
	f.AppDetect.add(app.ID, app.Ranks)
	ctx.Touch(f.AppDetect)
	f.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogAppSubmitted, id: uint64(app.ID), ref: f.env.Log.intern(app.Name)})
	var scope []bool
	if f.env.cfg.ScopedLocationBroadcast {
		scope = f.submitScope(app)
	}
	for rank := 0; rank < app.Ranks; rank++ {
		node := f.env.rankNode(app, rank)
		aid := AIDExec(app.ID, rank)
		// Execution ARMORs are deliberately NOT epoched (epoch zero =
		// always accepted). Epochs exist to break the duplicate-RECOVERER
		// loop, so they cover the singleton infrastructure identities —
		// FTM, Heartbeat, daemons. An Execution ARMOR is app-bound and
		// already arbitrated by the FTM's per-application state machine;
		// its known duplicate-install race (SCC placement replay vs. FTM
		// node-failure migration after a rolling outage) is benign under
		// last-install-wins, whereas epoching it lets the migrated
		// incarnation evict the app-co-located one and orphan the
		// application.
		spec := ArmorSpec{
			ID:              aid,
			Kind:            KindExecution,
			Name:            fmt.Sprintf("exec-%d-%d", app.ID, rank),
			NotifyInstalled: AIDFTM,
			App:             app,
			Rank:            rank,
		}
		f.ExecInfo.add(execRec{ArmorID: aid, App: uint64(app.ID), Rank: int64(rank), Node: node, AppStatus: 1})
		if f.cfg.FixRegistrationRace {
			// Fixed Figure 10 race: register before instructing the
			// daemon to install.
			f.ArmorInfo.recordArmor(aid, KindExecution, node, statusInstalling)
		}
		ctx.Touch(f.ExecInfo)
		ctx.Touch(f.ArmorInfo)
		daemon := f.NodeMgmt.Translate(node)
		ctx.Send(daemon, EvInstallArmor, InstallArmor{Spec: spec})
		f.announceSubmitLocation(ctx, scope, aid, node)
		// The application process itself attaches under a pseudo-AID on
		// the same node; daemons need it in their location caches to
		// route acknowledgments back to it. Application processes are
		// not epoched (they predate the ARMOR runtime), so epoch zero.
		f.announceSubmitLocation(ctx, scope, AIDApp(app.ID, rank), node)
	}
}

// submitScope computes which daemons route traffic for a submission under
// ScopedLocationBroadcast: the application's own rank nodes plus the
// FTM's node. The result is indexed like NodeMgmt.Nodes and valid until
// the next submission; it is computed once per submission, which cannot
// change the node table before its last announcement.
func (f *FTM) submitScope(app *AppSpec) []bool {
	if f.scopeNodes == nil {
		f.scopeNodes = make(map[string]bool)
	}
	hosts := f.scopeNodes
	clear(hosts)
	for rank := 0; rank < app.Ranks; rank++ {
		hosts[f.env.rankNode(app, rank)] = true
	}
	if own := f.env.placementNode(AIDFTM); own != "" {
		hosts[own] = true
	} else {
		hosts[f.env.cfg.FTMNode] = true
	}
	scope := f.scope[:0]
	for _, n := range f.NodeMgmt.Nodes {
		scope = append(scope, hosts[n.Hostname])
	}
	f.scope = scope
	return scope
}

// announceSubmitLocation distributes a submit-time location record
// (Execution ARMOR or application pseudo-AID, always epoch zero). The
// default is the cluster-wide broadcast; with ScopedLocationBroadcast
// the record goes only to the daemons submitScope marked in scope.
// Recovery-time updates (recoverNode, reconcile) keep the full
// broadcast: after a failure any daemon may hold a stale entry.
func (f *FTM) announceSubmitLocation(ctx *core.Ctx, scope []bool, id core.AID, node string) {
	if !f.env.cfg.ScopedLocationBroadcast {
		f.broadcastLocation(ctx, id, node, 0)
		return
	}
	for i, n := range f.NodeMgmt.Nodes {
		if !n.Alive || !scope[i] {
			continue
		}
		ctx.SendUnreliable(n.DaemonAID, EvLocation, Location{ID: id, Node: node, Epoch: 0})
	}
}

// onArmorInstalled fires when a subordinate reports installed; once every
// Execution ARMOR of an application is up, the FTM launches the rank-0
// process (Table 1, step 4).
func (f *FTM) onArmorInstalled(ctx *core.Ctx, id core.AID) {
	for _, r := range f.ExecInfo.Recs {
		if r.ArmorID != id {
			continue
		}
		app := AppID(r.App)
		all := true
		for _, ex := range f.ExecInfo.byApp(app) {
			rec := f.ArmorInfo.find(ex.ArmorID)
			if rec == nil || rec.Status != statusUp {
				all = false
			}
		}
		if !all {
			return
		}
		for _, ex := range f.ExecInfo.byApp(app) {
			if ex.Rank == 0 {
				ctx.Send(ex.ArmorID, EvLaunchApp, LaunchApp{AppID: app})
			}
		}
		return
	}
}

// finishApp uninstalls the Execution ARMORs and reports completion to the
// SCC (Table 1, steps 13).
func (f *FTM) finishApp(ctx *core.Ctx, app AppID) {
	restarts := int64(0)
	if p := f.AppParam.find(app); p != nil {
		restarts = p.Restarts
	}
	for _, ex := range f.ExecInfo.byApp(app) {
		daemon := f.NodeMgmt.Translate(ex.Node)
		ctx.Send(daemon, EvUninstallArmor, UninstallArmor{ID: ex.ArmorID})
	}
	f.ExecInfo.removeApp(app)
	ctx.Touch(f.ExecInfo)
	ctx.Send(f.cfg.SCC, EvAppDone, AppDone{AppID: app, Restarts: int(restarts)})
	f.env.Log.addApp(ctx.Now(), LogAppFinished, app, 0, uint64(restarts))
}

// rebuildSpec reconstructs the install spec for a failed subordinate,
// stamped with the record's current (already bumped) incarnation epoch.
func (f *FTM) rebuildSpec(r *armorRec) *ArmorSpec {
	switch ArmorKind(r.Kind) {
	case KindHeartbeat:
		return &ArmorSpec{
			ID:              r.ID,
			Kind:            KindHeartbeat,
			Name:            "heartbeat",
			AutoRestore:     true,
			NotifyInstalled: AIDFTM,
			Epoch:           r.Epoch,
		}
	case KindExecution:
		for _, ex := range f.ExecInfo.Recs {
			if ex.ArmorID == r.ID {
				app := f.env.appSpec(AppID(ex.App))
				if app == nil {
					return nil
				}
				return &ArmorSpec{
					ID:              r.ID,
					Kind:            KindExecution,
					Name:            fmt.Sprintf("exec-%d-%d", ex.App, ex.Rank),
					AutoRestore:     true,
					NotifyInstalled: AIDFTM,
					Epoch:           r.Epoch,
					App:             app,
					Rank:            int(ex.Rank),
				}
			}
		}
		return nil
	default:
		return nil
	}
}

// recoverNode migrates the ARMORs of a failed node to live nodes
// (Section 3.4).
func (f *FTM) recoverNode(ctx *core.Ctx, failed string) {
	for i := range f.ArmorInfo.Recs {
		r := &f.ArmorInfo.Recs[i]
		if r.Node != failed || ArmorKind(r.Kind) == ArmorKind(KindDaemon) {
			continue
		}
		if ArmorKind(r.Kind) == KindFTM {
			continue // our own recovery is the Heartbeat ARMOR's job
		}
		dst := f.NodeMgmt.FirstAliveNode(failed)
		if dst == "" {
			return
		}
		f.ArmorInfo.bumpEpoch(r)
		spec := f.rebuildSpec(r)
		if spec == nil {
			continue
		}
		r.Node = dst
		for j := range f.ExecInfo.Recs {
			if f.ExecInfo.Recs[j].ArmorID == r.ID {
				f.ExecInfo.Recs[j].Node = dst
			}
		}
		r.Status = statusRecovering
		ctx.Touch(f.ArmorInfo)
		ctx.Touch(f.ExecInfo)
		daemon := f.NodeMgmt.Translate(dst)
		ctx.Send(daemon, EvInstallArmor, InstallArmor{Spec: *spec})
		f.broadcastLocation(ctx, r.ID, dst, r.Epoch)
		f.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogArmorMigrated, id: uint64(r.ID), ref: f.env.Log.intern(dst)})
	}
}

// broadcastLocation updates every daemon's location cache.
func (f *FTM) broadcastLocation(ctx *core.Ctx, id core.AID, node string, epoch uint64) {
	for _, n := range f.NodeMgmt.Nodes {
		if !n.Alive {
			continue
		}
		ctx.SendUnreliable(n.DaemonAID, EvLocation, Location{ID: id, Node: node, Epoch: epoch})
	}
}

// initialEpoch is the incarnation epoch stamped on first installs: 1, or 0
// when the environment runs the epoch ablation.
func (f *FTM) initialEpoch() uint64 {
	if f.env.cfg.DisableEpochs {
		return 0
	}
	return 1
}

// StaleSender is the FTM's core-runtime hook for envelopes dropped because
// the sender was superseded — typically a partitioned-away Heartbeat ARMOR
// still polling after the heal. The drop already protects the FTM; the
// re-broadcast tells the stale incarnation's node who the authoritative
// incarnations are so it evicts its stale locals.
func (f *FTM) StaleSender(ctx *core.Ctx, env core.Envelope) {
	f.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogStaleSenderDropped, id: uint64(env.Src), n: env.SrcEpoch})
	f.reconcile(ctx)
}

// reconcile re-broadcasts the authoritative location and epoch of every
// epoched subordinate — plus the FTM's own — to every registered daemon,
// including ones the FTM believes dead: after a one-sided partition heals,
// the "dead" node is exactly the one hosting stale incarnations that must
// stand down. Fired only on evidence of a stale sender, so runs that never
// split see zero extra messages; throttled to one round per heartbeat
// period so a chatty stale incarnation cannot amplify traffic.
func (f *FTM) reconcile(ctx *core.Ctx) {
	if f.reconciledAt != 0 && ctx.Now()-f.reconciledAt < f.cfg.HeartbeatPeriod {
		return
	}
	f.reconciledAt = ctx.Now()
	f.env.Log.add(LogEntry{At: ctx.Now(), Kind: LogEpochReconcile})
	send := func(id core.AID, node string, epoch uint64) {
		for _, n := range f.NodeMgmt.Nodes {
			ctx.SendUnreliable(n.DaemonAID, EvLocation, Location{ID: id, Node: node, Epoch: epoch})
		}
	}
	send(AIDFTM, ctx.Proc.Node().Name(), ctx.Armor.Epoch())
	for i := range f.ArmorInfo.Recs {
		r := &f.ArmorInfo.Recs[i]
		if r.Epoch == 0 || ArmorKind(r.Kind) == KindDaemon || ArmorKind(r.Kind) == KindFTM {
			continue
		}
		send(r.ID, r.Node, r.Epoch)
	}
}
