package sift

import (
	"slices"
	"strconv"
	"time"

	"reesift/internal/core"
	"reesift/internal/memsim"
	"reesift/internal/sim"
)

// EnvConfig configures a SIFT environment deployment.
type EnvConfig struct {
	// Nodes are the cluster hostnames (the testbed's 4 or 6 PowerPC
	// boards).
	Nodes []string
	// FTMNode hosts the Fault Tolerance Manager; HeartbeatNode hosts
	// the Heartbeat ARMOR and must differ from FTMNode.
	FTMNode       string
	HeartbeatNode string
	// FTMHeartbeatPeriod is the FTM-to-daemon heartbeat period
	// (10 s in the paper; swept 5-30 s in Table 5).
	FTMHeartbeatPeriod time.Duration
	// HeartbeatArmorPeriod is the Heartbeat-ARMOR-to-FTM period (10 s).
	HeartbeatArmorPeriod time.Duration
	// DaemonAYAPeriod is the daemon-to-local-ARMOR are-you-alive period
	// (10 s).
	DaemonAYAPeriod time.Duration
	// InstallDelay models the daemon's fork-based process installation
	// (the dominant part of the ~0.5 s ARMOR recovery time).
	InstallDelay time.Duration
	// AppStartDelay models application process startup (exec, linking,
	// MPI initialization).
	AppStartDelay time.Duration
	// FixRegistrationRace enables the Figure 10 fix (register the
	// Execution ARMOR in the FTM's table before instructing the daemon
	// to install it). The paper's final configuration has it fixed.
	FixRegistrationRace bool
	// SCCCommandDelay spaces the SCC's initialization commands (daemon
	// registrations), giving the environment a realistic setup phase
	// during which the FTM's node and ARMOR tables are being written.
	SCCCommandDelay time.Duration
	// SharedCheckpoints commits microcheckpoints to the cluster-wide
	// nonvolatile store instead of each node's local RAM disk.
	// Section 3.4: "Tolerating node failures requires that the
	// checkpoints be saved to a centralized location" — with this off
	// (the paper's experimental default), a migrated ARMOR starts with
	// empty state.
	SharedCheckpoints bool
	// DisableSelfChecks turns off every element assertion — the
	// ablation of the paper's Section 7/9 claim that assertions plus
	// microcheckpointing prevent system failures.
	DisableSelfChecks bool
	// DisableBootAgent turns off the recovery subsystem: restarted nodes
	// come back with an empty process table and no daemon, reproducing
	// the original testbed's gap (node crashes of application-hosting
	// nodes are then unsurvivable). The default — boot agent enabled —
	// has the SCC start a boot agent on every restarted node.
	DisableBootAgent bool
	// SpreadPlacement places application ranks (and so their Execution
	// ARMORs) least-loaded-first across the cluster instead of cycling
	// the spec's node list, and keeps application ranks off the FTM's
	// node so an application-node crash never takes the manager down
	// with it. The per-rank assignment is computed once at submission
	// and is a pure function of the configuration and the submission
	// order, so runs stay deterministic at any worker count. Large
	// clusters (the scale scenario's hundreds of nodes) need this: the
	// spec's own node list would otherwise pile every rank onto a
	// handful of hosts.
	SpreadPlacement bool
	// ScopedLocationBroadcast narrows the FTM's submit-time location
	// announcements (Execution ARMOR and application pseudo-AID
	// records) from every daemon in the cluster to the daemons that can
	// actually route traffic for them: the application's own nodes plus
	// the FTM's node. On a 1000-node cluster a full broadcast per
	// submitted rank is quadratic message fan-out that no daemon ever
	// reads; recovery-time re-broadcasts (migrations, reconciliation)
	// stay cluster-wide, because after a failure any node may hold stale
	// cache entries.
	ScopedLocationBroadcast bool
	// DaemonRebind lets application processes re-resolve their local
	// daemon's address on every SIFT-interface send and re-attach when it
	// changed. It closes a race the boot-agent recovery path opens on
	// large clusters: a rank relaunched between node-up and the daemon
	// reinstall binds the dead incarnation's address at spawn, after
	// which every send (attach, PI create, progress) disappears into the
	// dead daemon and the rank wedges undetected. Off by default — the
	// paper's 4-6-node testbed never hit the race, and the pinned
	// long-horizon scenarios measure the environment without it.
	DaemonRebind bool
	// DisableEpochs turns off incarnation epochs on ARMOR identities
	// (all installs stamped epoch zero, no stale-sender rejection, no
	// stand-down of superseded incarnations). Ablation only: it
	// reproduces the pre-epoch split-brain hazard where a healed
	// one-sided partition leaves duplicate recoverers re-recovering the
	// FTM in a loop.
	DisableEpochs bool
	// MemTargets attaches simulated memory images (register/text
	// injection) to specific ARMORs by AID.
	MemTargets map[core.AID]memsim.Profile
}

// DefaultEnvConfig returns the paper's experimental configuration on the
// given nodes: all periods 10 s, race fixed.
func DefaultEnvConfig(nodes ...string) EnvConfig {
	if len(nodes) == 0 {
		nodes = []string{"node-a1", "node-a2", "node-b1", "node-b2"}
	}
	return EnvConfig{
		Nodes:                nodes,
		FTMNode:              nodes[0],
		HeartbeatNode:        nodes[1%len(nodes)],
		FTMHeartbeatPeriod:   10 * time.Second,
		HeartbeatArmorPeriod: 10 * time.Second,
		DaemonAYAPeriod:      10 * time.Second,
		InstallDelay:         450 * time.Millisecond,
		AppStartDelay:        400 * time.Millisecond,
		FixRegistrationRace:  true,
		SCCCommandDelay:      400 * time.Millisecond,
	}
}

// Environment assembles and observes a running SIFT deployment. The
// observational state (Log, PID oracles) exists for the experiment
// harness; the SIFT processes themselves communicate only through
// simulated messages.
type Environment struct {
	K   *sim.Kernel
	Log *EventLog
	cfg EnvConfig

	nodes     []*sim.Node
	daemons   map[string]*Daemon
	daemonPID map[string]sim.PID
	// daemonEpoch counts daemon incarnations per node: the Setup-time
	// daemon is epoch 1, each boot-agent reinstall bumps it. Zero when
	// epoching is disabled.
	daemonEpoch map[string]uint64
	// sendLower holds each node's ARMOR lower layer: it sends through
	// whichever daemon the node runs at send time, so one serves every
	// ARMOR installed there.
	sendLower map[string]func(*sim.Proc, core.Envelope)
	// execNames holds the name of each application rank's Execution
	// ARMOR, built at its first install: a recovery's spec reuses it.
	execNames map[appKey]string

	scc    *sccProc
	sccPID sim.PID

	// boxes is the cluster's one envelope free list: every envelope
	// originated here is boxed from it, and its last reader frees it.
	boxes core.Boxes

	// setupDaemons holds the daemon Setup installed at each node
	// position; Reset keeps them for the next Setup.
	setupDaemons []*Daemon

	// armors holds the last ARMOR runtime built for each AID. Reset keeps
	// it, so a later install of the AID can reuse the runtime; ArmorOf
	// reports it only once the AID is installed in this deployment.
	armors    map[core.AID]*core.Armor
	procOfAID map[core.AID]sim.PID
	// placement is the SCC's placement table: where every ARMOR was last
	// installed, and the spec to reinstall it with. The SCC-side recovery
	// state machine reads it when a restarted node's daemon comes back,
	// to re-register whatever belongs on that node.
	placement map[core.AID]placeRec
	appSpecs  map[AppID]*AppSpec
	appMem    map[appKey]*memsim.Memory
	appPID    map[appKey]sim.PID
	appCtx    map[appKey]*AppContext
	handles   map[AppID]*AppHandle

	// launches holds launchApp's record of each application rank; Reset
	// keeps it. deployment numbers the deployments Reset starts, so a
	// record tells whether its last process belongs to this one.
	launches   map[appKey]*rankLaunch
	deployment uint64

	// placeOf holds the spread-placement rank assignments (node name per
	// rank, computed at submission); rankLoad counts ranks assigned per
	// node across submissions. Both stay empty unless
	// EnvConfig.SpreadPlacement is on — the shared AppSpec is never
	// mutated, because campaign trials share spec pointers across
	// workers.
	placeOf  map[AppID][]string
	rankLoad map[string]int

	// AppDoneHook fires (in kernel context) when the SCC learns an
	// application completed; harnesses use it to stop the run early.
	AppDoneHook func(AppID)
}

type appKey struct {
	app  AppID
	rank int
}

// placeRec is one row of the SCC's placement table.
type placeRec struct {
	Spec ArmorSpec
	Node string
}

// AppHandle tracks one submission from the SCC's point of view.
type AppHandle struct {
	App         *AppSpec
	SubmittedAt time.Duration
	DoneAt      time.Duration
	Done        bool
	Restarts    int
}

// PerceivedTime returns the perceived application execution time
// (submission to SCC notification, Figure 5).
func (h *AppHandle) PerceivedTime() (time.Duration, bool) {
	if !h.Done {
		return 0, false
	}
	return h.DoneAt - h.SubmittedAt, true
}

// New creates an environment on k. Call Setup to install the SIFT
// processes.
func New(k *sim.Kernel, cfg EnvConfig) *Environment { return new(Environment).Reset(k, cfg) }

// Reset re-initialises e for a new deployment built from cfg on k, a new
// or Reset kernel, and returns it. It is New's initialiser; a campaign
// worker also calls it on the environment of a finished trial, whose
// kernel has been shut down, so the next trial reuses its storage:
//
//   - every map is emptied with clear, keeping its buckets, and the event
//     log keeps its entry chunks (EventLog.Reset);
//   - the envelope free list, each node's lower layer, the Execution
//     ARMOR names and each rank's launch record are kept (a lower layer
//     names its node and sends through whichever daemon runs there; a
//     name is a function of its application and rank; a launch record is
//     reused once its last process is dead, which every process of an
//     earlier deployment is);
//   - Setup reuses the daemon of each node position (Daemon.Reset), and
//     an install reuses the ARMOR runtime the AID's last incarnation
//     left, in this deployment or an earlier one (buildArmor).
//
// Elements and submission handles are always new.
func (e *Environment) Reset(k *sim.Kernel, cfg EnvConfig) *Environment {
	if cfg.FTMHeartbeatPeriod <= 0 {
		cfg.FTMHeartbeatPeriod = 10 * time.Second
	}
	if cfg.HeartbeatArmorPeriod <= 0 {
		cfg.HeartbeatArmorPeriod = 10 * time.Second
	}
	if cfg.DaemonAYAPeriod <= 0 {
		cfg.DaemonAYAPeriod = 10 * time.Second
	}
	if cfg.InstallDelay <= 0 {
		cfg.InstallDelay = 450 * time.Millisecond
	}
	if cfg.AppStartDelay <= 0 {
		cfg.AppStartDelay = 400 * time.Millisecond
	}
	e.K, e.cfg = k, cfg
	if e.Log == nil {
		e.Log = new(EventLog)
	}
	e.Log.Reset()
	clear(e.nodes)
	e.nodes = e.nodes[:0]
	if e.daemons == nil {
		e.daemons = make(map[string]*Daemon)
		e.daemonPID = make(map[string]sim.PID)
		e.daemonEpoch = make(map[string]uint64)
		e.armors = make(map[core.AID]*core.Armor)
		e.procOfAID = make(map[core.AID]sim.PID)
		e.placement = make(map[core.AID]placeRec)
		e.appSpecs = make(map[AppID]*AppSpec)
		e.appMem = make(map[appKey]*memsim.Memory)
		e.appPID = make(map[appKey]sim.PID)
		e.appCtx = make(map[appKey]*AppContext)
		e.handles = make(map[AppID]*AppHandle)
		e.placeOf = make(map[AppID][]string)
		e.rankLoad = make(map[string]int)
		e.launches = make(map[appKey]*rankLaunch)
	}
	e.deployment++
	clear(e.daemons)
	clear(e.daemonPID)
	clear(e.daemonEpoch)
	clear(e.procOfAID)
	clear(e.placement)
	clear(e.appSpecs)
	clear(e.appMem)
	clear(e.appPID)
	clear(e.appCtx)
	clear(e.handles)
	clear(e.placeOf)
	clear(e.rankLoad)
	e.scc, e.sccPID = nil, sim.NoPID
	e.AppDoneHook = nil
	return e
}

// Shutdown ends the deployment: it shuts the kernel down (Kernel.Shutdown)
// and, once every process is dead, takes back every envelope box the
// cluster's free list has made (Boxes.Reclaim), the ones that dead
// processes, lost messages and pending deliveries still held included.
// The environment stays readable; only Reset may run it again.
func (e *Environment) Shutdown() {
	e.K.Shutdown()
	if e.K.LiveProcs() == 0 {
		e.boxes.Reclaim()
	}
}

// initialEpoch returns the epoch stamped on first-incarnation installs:
// 1 normally, 0 when the epoch ablation is on.
func (e *Environment) initialEpoch() uint64 {
	if e.cfg.DisableEpochs {
		return 0
	}
	return 1
}

// nextDaemonEpoch advances and returns the daemon incarnation epoch for
// a node. The Setup-time daemon draws 1; each boot-agent reinstall draws
// the next value, so the FTM can tell a reborn daemon from a stale one.
func (e *Environment) nextDaemonEpoch(node string) uint64 {
	if e.cfg.DisableEpochs {
		return 0
	}
	e.daemonEpoch[node]++
	return e.daemonEpoch[node]
}

// Setup performs Table 1 step 1: create the nodes, install a daemon on
// each, start the SCC, and let the SCC install the FTM and register the
// daemons (which in turn installs the Heartbeat ARMOR). Runs take effect
// as the kernel executes.
func (e *Environment) Setup() {
	for i, name := range e.cfg.Nodes {
		n := e.K.AddNode(name)
		e.nodes = append(e.nodes, n)
		if i == len(e.setupDaemons) {
			e.setupDaemons = append(e.setupDaemons, new(Daemon))
		}
		d := e.setupDaemons[i].Reset(e, n, AIDDaemon(i))
		e.daemons[name] = d
		pid := e.K.SpawnHandler(n, d.procName(), sim.NoPID, d)
		e.daemonPID[name] = pid
	}
	ground := e.K.AddNode("scc-ground")
	e.scc = &sccProc{env: e, seen: make(map[seqKey]bool)}
	e.sccPID = e.K.Spawn(ground, "scc", sim.NoPID, e.scc.Run)
	if !e.cfg.DisableBootAgent {
		// The SCC observes node power transitions out of band and starts
		// a boot agent on every restarted node (the recovery subsystem).
		for _, name := range e.cfg.Nodes {
			e.K.WatchNode(name, e.sccPID)
		}
	}

	// Push static bootstrap tables to the daemons.
	nodeOf := make(map[core.AID]string, len(e.cfg.Nodes))
	for i, name := range e.cfg.Nodes {
		nodeOf[AIDDaemon(i)] = name
	}
	nodeOf[AIDFTM] = e.cfg.FTMNode
	nodeOf[AIDHeartbeat] = e.cfg.HeartbeatNode
	for _, name := range e.cfg.Nodes {
		boot := DaemonBootstrap{
			DaemonPIDs: e.daemonPID,
			NodeOf:     nodeOf,
			SCCPID:     e.sccPID,
		}
		e.K.SendExternal(e.daemonPID[name], boot)
	}
}

// Submit schedules an application submission through the SCC at virtual
// time at, returning the handle the harness polls after the run.
func (e *Environment) Submit(app *AppSpec, at time.Duration) *AppHandle {
	if app.MPIStartTimeout <= 0 {
		app.MPIStartTimeout = 10 * time.Second
	}
	h := &AppHandle{App: app}
	e.handles[app.ID] = h
	e.appSpecs[app.ID] = app
	if e.cfg.SpreadPlacement {
		e.spreadPlace(app)
	}
	delay := at - e.K.Now()
	e.K.Schedule(delay, func() {
		e.K.SendExternal(e.sccPID, sccSubmit{App: app})
	})
	return h
}

// Handle returns the submission handle for an application.
func (e *Environment) Handle(id AppID) *AppHandle { return e.handles[id] }

// appSpec looks up a submitted application spec (used by the FTM when
// rebuilding Execution ARMOR install specs during recovery).
func (e *Environment) appSpec(id AppID) *AppSpec { return e.appSpecs[id] }

// DaemonAID returns the daemon AID for a hostname.
func (e *Environment) DaemonAID(host string) core.AID {
	for i, n := range e.cfg.Nodes {
		if n == host {
			return AIDDaemon(i)
		}
	}
	return core.InvalidAID
}

// ProcOf returns the current process of an ARMOR (the injection oracle).
func (e *Environment) ProcOf(aid core.AID) sim.PID { return e.procOfAID[aid] }

// ArmorOf returns the ARMOR object of the AID's latest incarnation, nil
// before its first install (the targeted heap injector corrupts element
// fields through it).
func (e *Environment) ArmorOf(aid core.AID) *core.Armor {
	if _, ok := e.procOfAID[aid]; !ok {
		return nil
	}
	return e.armors[aid]
}

// AppProc returns the current process of an application rank.
func (e *Environment) AppProc(app AppID, rank int) sim.PID {
	return e.appPID[appKey{app, rank}]
}

// AppMem returns the simulated memory image of an application rank, nil
// if the application has no memory profile.
func (e *Environment) AppMem(app AppID, rank int) *memsim.Memory {
	return e.appMem[appKey{app, rank}]
}

// AppCtx returns the live application context of a rank (the heap
// injector reaches the registered heap regions through it).
func (e *Environment) AppCtx(app AppID, rank int) *AppContext {
	return e.appCtx[appKey{app, rank}]
}

// Config returns the environment configuration.
func (e *Environment) Config() EnvConfig { return e.cfg }

// ftmSites orders the cluster's daemon-bearing nodes as FTM reinstall
// candidates for a Heartbeat ARMOR hosted on own: the configured FTM
// node first (the paper's fixed-node recovery), then the other nodes in
// cluster order, and the Heartbeat ARMOR's own node as the last resort
// (co-locating the FTM with its recoverer sacrifices single-node fault
// tolerance, so every other option is preferred).
func (e *Environment) ftmSites(own string) []FTMSite {
	sites := make([]FTMSite, 0, len(e.cfg.Nodes))
	add := func(name string) {
		for _, s := range sites {
			if s.Node == name {
				return
			}
		}
		sites = append(sites, FTMSite{Node: name, Daemon: e.DaemonAID(name)})
	}
	add(e.cfg.FTMNode)
	for _, name := range e.cfg.Nodes {
		if name != own {
			add(name)
		}
	}
	add(own)
	return sites
}

// buildArmor constructs an ARMOR process image for a daemon install on
// the given node. The node matters: the ARMOR's lower layer is its *local*
// daemon, which after a migration is not the node named in the original
// placement. When the AID's latest incarnation is dead, or belongs to an
// earlier deployment of a Reset environment, its runtime is Reset for the
// new one (see core.Armor.Reset); an incarnation whose process is still
// alive, say on the far side of a partition, is never reused. Either way
// the elements are new structs, so no element state of an old
// incarnation reaches the new one.
func (e *Environment) buildArmor(spec ArmorSpec, node string) *core.Armor {
	cfg := core.Config{
		ID:              spec.ID,
		Name:            spec.Name,
		SendLower:       e.lowerLayer(node),
		Boxes:           &e.boxes,
		AutoRestore:     spec.AutoRestore,
		AwaitRestore:    spec.AwaitRestore,
		NotifyInstalled: spec.NotifyInstalled,
		Epoch:           spec.Epoch,
		DisableChecks:   e.cfg.DisableSelfChecks,
	}
	if e.cfg.SharedCheckpoints {
		cfg.Store = e.K.SharedFS()
	}
	if prof, ok := e.cfg.MemTargets[spec.ID]; ok {
		cfg.Mem = memsim.New(e.K.Rand(), prof)
	}
	switch spec.Kind {
	case KindFTM:
		f := NewFTM(e, FTMConfig{
			HeartbeatPeriod:     e.cfg.FTMHeartbeatPeriod,
			FixRegistrationRace: e.cfg.FixRegistrationRace,
			HeartbeatNode:       e.cfg.HeartbeatNode,
			SCC:                 AIDSCC,
		})
		cfg.Elements = append(f.Elements(), &submitElem{ftm: f})
		cfg.OnStaleSender = f.StaleSender
	case KindHeartbeat:
		cfg.Elements = []core.Element{core.Checkpointed(&HeartbeatElem{
			env:       e,
			FTMNode:   e.cfg.FTMNode,
			FTMDaemon: e.DaemonAID(e.cfg.FTMNode),
			Period:    e.cfg.HeartbeatArmorPeriod,
			Sites:     e.ftmSites(node),
			// Start from the epoch of the last FTM incarnation actually
			// installed (an AutoRestore reinstall overrides this from
			// checkpoint).
			FTMEpoch: e.ftmEpochNow(),
		})}
	case KindExecution:
		cfg.Elements = []core.Element{core.Checkpointed(&ExecElem{
			env:             e,
			App:             spec.App,
			Rank:            spec.Rank,
			InterruptDriven: spec.App != nil && spec.App.InterruptPI,
		})}
	default:
		cfg.Elements = nil
	}
	if old := e.armors[spec.ID]; old != nil && !e.K.Alive(e.procOfAID[spec.ID]) {
		return old.Reset(cfg)
	}
	return core.New(cfg)
}

// lowerLayer returns the node's ARMOR lower layer, making it on first
// use.
func (e *Environment) lowerLayer(node string) func(*sim.Proc, core.Envelope) {
	send, ok := e.sendLower[node]
	if !ok {
		if e.sendLower == nil {
			e.sendLower = make(map[string]func(*sim.Proc, core.Envelope), len(e.cfg.Nodes))
		}
		send = func(p *sim.Proc, env core.Envelope) {
			p.Send(e.daemonPID[node], e.boxes.Box(env))
		}
		e.sendLower[node] = send
	}
	return send
}

// execName returns "exec-<app>-<rank>", the name of an application rank's
// Execution ARMOR, building it once.
func (e *Environment) execName(app AppID, rank int) string {
	key := appKey{app: app, rank: rank}
	name, ok := e.execNames[key]
	if !ok {
		if e.execNames == nil {
			e.execNames = make(map[appKey]string)
		}
		name = "exec-" + strconv.FormatUint(uint64(app), 10) + "-" + strconv.Itoa(rank)
		e.execNames[key] = name
	}
	return name
}

// ftmEpochNow returns the incarnation epoch of the most recently
// installed FTM (the placement table tracks every install spec), falling
// back to the first-incarnation epoch before any FTM exists.
func (e *Environment) ftmEpochNow() uint64 {
	if rec, ok := e.placement[AIDFTM]; ok && rec.Spec.Epoch > 0 {
		return rec.Spec.Epoch
	}
	return e.initialEpoch()
}

// registerArmorProc records a fresh ARMOR process in the oracles and the
// SCC's placement table, and completes any pending recovery measurement.
func (e *Environment) registerArmorProc(spec ArmorSpec, armor *core.Armor, pid sim.PID, node string) {
	e.armors[spec.ID] = armor
	e.procOfAID[spec.ID] = pid
	e.placement[spec.ID] = placeRec{Spec: spec, Node: node}
	e.Log.RecoveryDone(e.K.Now(), spec.ID)
}

// placementNode returns the node an ARMOR was last installed on ("" if
// never installed). The SCC consults it so its uplink follows a migrated
// FTM instead of the static configuration.
func (e *Environment) placementNode(aid core.AID) string {
	return e.placement[aid].Node
}

// bootstrapSnapshot rebuilds the DaemonBootstrap as it stands now: the
// current daemon process addresses, the static daemon placements, and —
// unlike the Setup-time original — the *current* location of every
// installed ARMOR, so a daemon reinstalled after a node restart routes
// around completed migrations.
func (e *Environment) bootstrapSnapshot() DaemonBootstrap {
	pids := make(map[string]sim.PID, len(e.daemonPID))
	for host, pid := range e.daemonPID {
		pids[host] = pid
	}
	nodeOf := make(map[core.AID]string, len(e.cfg.Nodes)+len(e.placement))
	for i, name := range e.cfg.Nodes {
		nodeOf[AIDDaemon(i)] = name
	}
	nodeOf[AIDFTM] = e.cfg.FTMNode
	nodeOf[AIDHeartbeat] = e.cfg.HeartbeatNode
	for aid, rec := range e.placement {
		nodeOf[aid] = rec.Node
	}
	return DaemonBootstrap{DaemonPIDs: pids, NodeOf: nodeOf, SCCPID: e.sccPID}
}

// spreadPlace computes the load-aware rank assignment for a submission:
// each rank in order takes the least-loaded candidate node, ties broken
// by cluster order. The FTM's node is excluded whenever the cluster has
// any other node, so an application-node crash never also decapitates
// the manager. The assignment depends only on the configuration and the
// submission order — no randomness, no kernel state — so campaign trials
// replay it identically at any worker count.
func (e *Environment) spreadPlace(app *AppSpec) {
	if _, done := e.placeOf[app.ID]; done {
		return // duplicate submission keeps the first assignment
	}
	candidates := make([]string, 0, len(e.cfg.Nodes))
	for _, n := range e.cfg.Nodes {
		if n != e.cfg.FTMNode {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		candidates = e.cfg.Nodes
	}
	assign := make([]string, app.Ranks)
	for rank := range assign {
		best := candidates[0]
		for _, n := range candidates[1:] {
			if e.rankLoad[n] < e.rankLoad[best] {
				best = n
			}
		}
		e.rankLoad[best]++
		assign[rank] = best
	}
	e.placeOf[app.ID] = assign
}

// rankNode resolves the node hosting an application rank (and its
// Execution ARMOR): the spread-placement assignment when one exists,
// otherwise the spec's cycled node list. launchApp and the FTM's submit
// path both go through here, so the application process and its monitor
// always land on the same node.
func (e *Environment) rankNode(app *AppSpec, rank int) string {
	if assign := e.placeOf[app.ID]; rank < len(assign) {
		return assign[rank]
	}
	return app.Nodes[rank%len(app.Nodes)]
}

// rankLaunch is launchApp's record of one application rank, kept across
// deployments: the process name, the process body, bound once, and the
// rank's AppContext, which each process the record launches resets in
// place. It also holds what the launch hands its process. A record is
// reused only once its last process is dead; while that process lives (a
// hung or orphaned rank), it keeps the record and a launch takes a new one.
type rankLaunch struct {
	env *Environment
	// deployment and pid name the record's last process.
	deployment uint64
	pid        sim.PID

	name string
	body func(*sim.Proc)

	app           *AppSpec
	rank, restart int
	node          string
	mem           *memsim.Memory

	ac AppContext
}

// setName names the record's process "<app>-r<rank>", keeping the name of
// an earlier launch when it is the same.
func (l *rankLaunch) setName(app string, rank int) {
	var buf [64]byte
	name := strconv.AppendInt(append(append(buf[:0], app...), "-r"...), int64(rank), 10)
	if l.name != string(name) {
		l.name = string(name)
	}
}

// run is the body of an application rank's process.
func (l *rankLaunch) run(p *sim.Proc) {
	e, app, rank, restart := l.env, l.app, l.rank, l.restart
	ac := &l.ac
	ac.reset(p, e, app, rank, restart, l.node, l.mem)
	e.appCtx[appKey{app.ID, rank}] = ac
	// The communication channel exists as soon as the process is
	// forked; application initialization (exec, linking, MPI init)
	// happens afterwards.
	ac.Attach()
	p.Sleep(e.cfg.AppStartDelay)
	if rank == 0 && restart > 0 {
		// The restarted application is now running its code: the
		// recovery window (failure detection to process restart)
		// closes here.
		e.Log.AppRecoveryDone(p.Now(), app.ID)
	}
	app.Launcher(ac)
	e.Log.addApp(p.Now(), LogAppRankExit, app.ID, rank, uint64(restart))
}

// launchApp starts one application rank. When spawner is non-nil the
// process becomes the spawner's child (the rank-0 / Execution ARMOR
// relationship); otherwise it is a free-standing process watched through
// the process table.
func (e *Environment) launchApp(spawner *sim.Proc, app *AppSpec, rank, restart int) sim.PID {
	key := appKey{app.ID, rank}
	l := e.launches[key]
	if l == nil || l.deployment == e.deployment && e.K.Alive(l.pid) {
		l = &rankLaunch{env: e}
		l.body = l.run
		e.launches[key] = l
	}
	nodeName := e.rankNode(app, rank)
	node := e.K.Node(nodeName)
	l.setName(app.Name, rank)
	var mem *memsim.Memory
	if app.MemProfile != nil {
		mem = memsim.New(e.K.Rand(), *app.MemProfile)
	}
	l.app, l.rank, l.restart, l.node, l.mem = app, rank, restart, nodeName, mem
	var pid sim.PID
	if spawner != nil {
		pid = spawner.SpawnChild(node, l.name, l.body)
	} else {
		pid = e.K.Spawn(node, l.name, sim.NoPID, l.body)
	}
	l.deployment, l.pid = e.deployment, pid
	e.appPID[key] = pid
	if mem != nil {
		e.appMem[key] = mem
	}
	return pid
}

// RunStandalone executes an application on the cluster without any SIFT
// processes — the paper's "Baseline No SIFT" configuration (Table 3). It
// returns the actual execution time (first rank start to last rank exit)
// once the kernel has been run.
func RunStandalone(k *sim.Kernel, app *AppSpec, startAt time.Duration) func() (time.Duration, bool) {
	app.Standalone = true
	env := New(k, EnvConfig{
		Nodes:         app.Nodes,
		FTMNode:       app.Nodes[0],
		HeartbeatNode: app.Nodes[len(app.Nodes)-1],
	})
	for _, name := range app.Nodes {
		if k.Node(name) == nil {
			k.AddNode(name)
		}
	}
	env.appSpecs[app.ID] = app
	var startedAt time.Duration
	exits := 0
	var endedAt time.Duration
	k.Schedule(startAt, func() {
		startedAt = k.Now()
		env.launchApp(nil, app, 0, 0)
	})
	return func() (time.Duration, bool) {
		exits = env.Log.Count(LogAppRankExit)
		if exits < app.Ranks {
			return 0, false
		}
		last, _ := env.Log.Last(LogAppRankExit)
		endedAt = last.At
		return endedAt - startedAt, true
	}
}

// ---------------------------------------------------------------------------
// SCC: the trusted Spacecraft Control Computer driver.
// ---------------------------------------------------------------------------

// sccSubmit is the external command (from the experiment harness, standing
// in for the ground station) asking the SCC to submit an application.
type sccSubmit struct {
	App *AppSpec
}

// sccProc performs the SCC's Table 1 duties: install the FTM, register the
// daemons, submit applications, and receive completion reports. It is
// hosted on rad-hard hardware and is never a fault-injection target.
type sccProc struct {
	env  *Environment
	proc *sim.Proc
	seq  uint64
	// seen dedups reliable envelopes from the FTM.
	seen  map[seqKey]bool
	stash []sim.Msg
	// aidScratch is recoverNode's reusable sorted placement list.
	aidScratch []core.AID
}

// Run is the SCC process body.
func (s *sccProc) Run(p *sim.Proc) {
	s.proc = p
	// Step 1b: install the FTM through the daemon on its node.
	ftmSpec := &ArmorSpec{
		ID:              AIDFTM,
		Kind:            KindFTM,
		Name:            "ftm",
		NotifyInstalled: AIDSCC,
		Epoch:           s.env.initialEpoch(),
	}
	s.sendReliable(s.env.DaemonAID(s.env.cfg.FTMNode), InstallArmor{Spec: ftmSpec}.Event())
	// Wait for the FTM's install acknowledgment.
	s.waitEvent(30*time.Second, core.EventInstalled)
	// Step 1c: register every daemon with the FTM (this also triggers
	// the Heartbeat ARMOR install on its node). Commands are spaced by
	// the uplink command delay, giving the run a real setup phase.
	for i, name := range s.env.cfg.Nodes {
		s.proc.Sleep(s.env.cfg.SCCCommandDelay)
		s.sendReliable(AIDFTM, RegisterDaemon{
			Hostname:  name,
			DaemonAID: AIDDaemon(i),
			Epoch:     s.env.daemonEpoch[name],
		}.Event())
	}
	s.env.Log.add(LogEntry{At: p.Now(), Kind: LogSiftInitialized})
	for {
		m := s.nextMsg()
		switch pl := m.Payload.(type) {
		case sccSubmit:
			h := s.env.handles[pl.App.ID]
			h.SubmittedAt = p.Now()
			s.env.Log.addApp(p.Now(), LogAppSubmit, pl.App.ID, 0, 0)
			s.sendReliable(AIDFTM, core.Event{Kind: EvSubmitApp, Data: SubmitApp{App: pl.App}})
		case *core.Envelope:
			s.handleEnvelope(*pl)
			s.env.boxes.Free(pl)
		case sim.NodeDown:
			s.env.Log.addNode(p.Now(), LogNodeDownObserved, pl.Node)
		case sim.NodeUp:
			s.nodeRestarted(pl.Node)
		case BootReport:
			s.recoverNode(pl)
		}
	}
}

// nodeRestarted starts the boot agent on a node that just powered back
// up — the first step of the recovery subsystem. The agent reinstalls
// the daemon and reports back with a BootReport.
func (s *sccProc) nodeRestarted(name string) {
	if s.env.cfg.DisableBootAgent {
		return
	}
	node := s.env.K.Node(name)
	if node == nil || !node.Up() {
		return
	}
	s.env.Log.addNode(s.proc.Now(), LogNodeRestartDetected, name)
	s.proc.SpawnChildHandler(node, "boot-"+name, NewBootAgent(s.env, name))
}

// recoverNode is the SCC-side recovery state machine, entered when a
// restarted node's boot agent reports its daemon reinstalled. The SCC
// first reinstalls every dead ARMOR its placement table still places on
// the node (ARMORs the FTM migrated away have updated placements and are
// skipped). The FTM itself is normally left to the Heartbeat ARMOR's
// two-step recovery; the SCC steps in only when that recoverer is dead
// or hung too — the last-resort path that closes the paper's Section 6
// compound FTM/Heartbeat failure. Finally the daemon is re-registered
// with the FTM so heartbeat rounds and hostname translation resume.
func (s *sccProc) recoverNode(rep BootReport) {
	e := s.env
	aids := s.aidScratch[:0]
	for aid := range e.placement {
		aids = append(aids, aid)
	}
	slices.Sort(aids)
	s.aidScratch = aids
	for _, aid := range aids {
		rec := e.placement[aid]
		if rec.Node != rep.Node || rec.Spec.Kind == KindDaemon {
			continue
		}
		if pid := e.procOfAID[aid]; pid != sim.NoPID && e.K.Alive(pid) {
			continue // survived elsewhere or already reinstalled
		}
		if aid == AIDFTM && s.ftmRecovererAlive() {
			continue // the Heartbeat ARMOR owns FTM recovery
		}
		spec := new(ArmorSpec)
		*spec = rec.Spec
		spec.AutoRestore = true
		spec.AwaitRestore = false
		spec.NotifyInstalled = AIDSCC
		if aid == AIDFTM && spec.Epoch > 0 {
			// The last-resort FTM reinstall is a failure declaration:
			// the replacement incarnation supersedes the dead one, so
			// any of its stale traffic still queued in the network is
			// rejected at the epoch gate.
			spec.Epoch++
		}
		s.env.Log.add(LogEntry{At: s.proc.Now(), Kind: LogArmorReregistered, id: uint64(aid), ref: s.env.Log.intern(rep.Node)})
		s.sendReliable(rep.DaemonAID, InstallArmor{Spec: spec}.Event())
	}
	// Re-registration resumes the FTM's heartbeat rounds for the node
	// and restores hostname translation for future installs. It blocks
	// (retransmitting) until the FTM — possibly mid-migration — acks.
	// The bumped daemon epoch tells the FTM this is a reborn daemon,
	// not a stale one resurfacing.
	s.sendReliable(AIDFTM, RegisterDaemon{
		Hostname:  rep.Node,
		DaemonAID: rep.DaemonAID,
		Epoch:     rep.Epoch,
	}.Event())
	s.env.Log.addNode(s.proc.Now(), LogDaemonReregistered, rep.Node)
}

// ftmRecovererAlive reports whether the Heartbeat ARMOR is in a state to
// perform FTM recovery: alive and not suspended (a hung recoverer is as
// good as dead for the compound-failure path).
func (s *sccProc) ftmRecovererAlive() bool {
	pid := s.env.procOfAID[AIDHeartbeat]
	if pid == sim.NoPID {
		return false
	}
	return s.env.K.Alive(pid) && !s.env.K.Suspended(pid)
}

// stashMsg keeps m for nextMsg, which consumes everything the SCC stashes.
func (s *sccProc) stashMsg(m sim.Msg) { s.stash = append(s.stash, m) }

// nextMsg pops a stashed message or blocks for a new one.
func (s *sccProc) nextMsg() sim.Msg {
	if len(s.stash) > 0 {
		m := s.stash[0]
		s.stash = s.stash[1:]
		return m
	}
	return s.proc.Recv()
}

func (s *sccProc) handleEnvelope(env core.Envelope) {
	if !s.accept(env) {
		return
	}
	if done, ok := AppDoneOf(env.Event); ok {
		h := s.env.handles[done.AppID]
		if h == nil || h.Done {
			return
		}
		h.Done = true
		h.DoneAt = s.proc.Now()
		h.Restarts = done.Restarts
		s.env.Log.addApp(s.proc.Now(), LogSCCNotified, done.AppID, 0, uint64(done.Restarts))
		if s.env.AppDoneHook != nil {
			s.env.AppDoneHook(done.AppID)
		}
	}
}

// accept acknowledges a reliable envelope and reports whether it is
// fresh: not an ack and not a retransmission of an already-seen
// sequence number.
func (s *sccProc) accept(env core.Envelope) bool {
	if env.Ack {
		return false
	}
	if env.Seq > 0 {
		key := seqKey{src: env.Src, seq: env.Seq}
		dup := s.seen[key]
		s.seen[key] = true
		s.ack(env)
		return !dup
	}
	return true
}

// seqKey names one reliable envelope: its sender and sequence number.
type seqKey struct {
	src core.AID
	seq uint64
}

// ack acknowledges a reliable envelope back through the sender's daemon.
func (s *sccProc) ack(env core.Envelope) {
	reply := core.Envelope{Src: AIDSCC, Dst: env.Src, Ack: true, AckSeq: env.Seq}
	s.route(reply)
}

// sendReliable transmits an event and blocks until acknowledged,
// retransmitting every 2 s. The SCC's persistence is what lets submissions
// survive FTM failures during the setup phase (Figure 7).
func (s *sccProc) sendReliable(dst core.AID, ev core.Event) {
	s.seq++
	env := core.Envelope{Src: AIDSCC, Dst: dst, Seq: s.seq, Event: ev}
	for {
		s.route(env)
		if waitAck(s.proc, &s.env.boxes, s.stashMsg, dst, env.Seq, 2*time.Second) {
			return
		}
	}
}

// route sends an envelope via the FTM node's daemon (the SCC's uplink
// attaches there). Every call boxes the envelope anew from the cluster's
// free list, so a retransmission starts from the sender's pristine copy;
// the box belongs to the network and its receiver from here on.
func (s *sccProc) route(env core.Envelope) {
	host := s.env.cfg.FTMNode
	if env.Dst.Valid() {
		if h := s.hostOf(env.Dst); h != "" {
			host = h
		}
	}
	s.proc.Send(s.env.daemonPID[host], s.env.boxes.Box(env))
}

func (s *sccProc) hostOf(aid core.AID) string {
	for i, name := range s.env.cfg.Nodes {
		if AIDDaemon(i) == aid {
			return name
		}
	}
	// The placement table tracks migrations: the SCC's uplink follows a
	// migrated FTM instead of the static configuration.
	if node := s.env.placementNode(aid); node != "" {
		return node
	}
	if aid == AIDFTM {
		return s.env.cfg.FTMNode
	}
	if aid == AIDHeartbeat {
		return s.env.cfg.HeartbeatNode
	}
	return ""
}

// waitEvent blocks until an envelope containing the given event kind
// arrives (stashing everything else), or the timeout passes.
func (s *sccProc) waitEvent(timeout time.Duration, kind core.EventKind) bool {
	deadline := s.proc.Now() + timeout
	for {
		remain := deadline - s.proc.Now()
		if remain <= 0 {
			return false
		}
		m, ok := s.proc.RecvTimeout(remain)
		if !ok {
			return false
		}
		if env, isEnv := m.Payload.(*core.Envelope); isEnv {
			match := s.accept(*env) && env.Event.Kind == kind
			s.env.boxes.Free(env)
			if match {
				return true
			}
			continue
		}
		s.stashMsg(m)
	}
}
