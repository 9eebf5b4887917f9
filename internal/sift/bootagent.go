package sift

import (
	"reesift/internal/core"
	"reesift/internal/sim"
)

// BootReport is the boot agent's completion message to the SCC: the
// restarted node's daemon is back and ready to be re-registered with the
// FTM. It travels on the trusted ground channel (a raw sim message, not a
// SIFT envelope), like the SCC's other control traffic.
type BootReport struct {
	Node      string
	DaemonAID core.AID
	// Epoch is the reinstalled daemon's incarnation epoch (bumped past
	// the dead incarnation's), forwarded by the SCC when it re-registers
	// the daemon with the FTM.
	Epoch uint64
}

// BootAgent is the per-node recovery process of the SIFT environment: the
// piece the original testbed lacked. When a crashed node powers back up,
// the SCC (notified through Kernel.WatchNode) starts the node's boot
// agent — the simulation analogue of the board's boot ROM handing control
// to a recovery image. The agent reinstalls the node's daemon, replays
// the DaemonBootstrap it would have received at environment
// initialization (peer daemon addresses, the location cache including
// post-migration ARMOR placements, the SCC's process address), announces
// the daemon's fresh process address to the surviving peers, and reports
// to the SCC, which re-registers the daemon with the FTM and reinstalls
// whatever ARMORs its placement table says belong on the node.
//
// The agent is a handler process (sim.Handler): Start arms the install
// delay, and Handle runs the reinstall when it expires. The agent then
// stays resident as the node's init process, ignoring every other
// message: if the daemon dies again while the node stays up, nothing here
// intervenes — daemon failures are node failures (Section 3.3), and the
// next crash/restart cycle runs the whole sequence again.
type BootAgent struct {
	env  *Environment
	node string
}

// NewBootAgent builds the boot agent for a restarted node.
func NewBootAgent(env *Environment, node string) *BootAgent {
	return &BootAgent{env: env, node: node}
}

// bootInstall is the timer that ends the agent's install delay.
type bootInstall struct{}

// Start begins the boot: loading the daemon image and forking it costs the
// same install delay as any daemon-driven process installation. The agent
// must run on the restarted node.
func (b *BootAgent) Start(p *sim.Proc) {
	e := b.env
	if n := e.K.Node(b.node); n == nil || !n.Up() {
		p.Exit(0, "")
	}
	e.Log.addNode(p.Now(), LogBootAgentStarted, b.node)
	p.After(e.cfg.InstallDelay, bootInstall{})
}

// Handle reinstalls the node's daemon when the install delay expires.
func (b *BootAgent) Handle(p *sim.Proc, m sim.Msg) {
	if _, ok := m.Payload.(bootInstall); !ok {
		return
	}
	e := b.env
	n := e.K.Node(b.node)
	// The node's dead daemon is reset for the new incarnation, as Setup
	// does; a live one (a second restart's agent was quicker) is left be.
	aid := e.DaemonAID(b.node)
	d := e.daemons[b.node]
	if d == nil || e.K.Alive(e.daemonPID[b.node]) {
		d = new(Daemon)
	}
	d.Reset(e, n, aid)
	pid := p.SpawnChildHandler(n, d.procName(), d)
	e.daemons[b.node] = d
	e.daemonPID[b.node] = pid

	// Replay the bootstrap: the fresh daemon needs the full table, and
	// every surviving peer needs the restarted daemon's new process
	// address (their cached one points at the dead incarnation).
	boot := e.bootstrapSnapshot()
	for _, name := range e.cfg.Nodes {
		peer := e.daemonPID[name]
		if peer == sim.NoPID || !e.K.Alive(peer) {
			continue
		}
		p.Send(peer, boot)
	}
	e.Log.addNode(p.Now(), LogDaemonReinstalled, b.node)
	p.Send(e.sccPID, BootReport{Node: b.node, DaemonAID: aid, Epoch: d.Epoch()})
}
