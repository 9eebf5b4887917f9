package reesift

import (
	"fmt"
	"time"

	"reesift/internal/sift"
	"reesift/internal/sim"
)

// AppID identifies a submitted application.
type AppID = sift.AppID

// AppSpec describes an application submission (ranks, nodes, launcher).
// Build specs with RoverApp / OTISApp or the internal app packages; the
// façade treats them as opaque.
type AppSpec = sift.AppSpec

// AppHandle tracks one submission from the SCC's point of view.
type AppHandle = sift.AppHandle

// LogKind names what an entry of the cluster's event log (Cluster.Log)
// records; its String is the kind's name in rendered text and traces.
type LogKind = sift.LogKind

// Log kinds for reading a cluster's timeline: Log().First, Last, Count
// and All take one.
const (
	// LogSiftInitialized: the environment finished installing.
	LogSiftInitialized = sift.LogSiftInitialized
	// LogAppStarted: an application's first launch.
	LogAppStarted = sift.LogAppStarted
	// LogAppRankExit: one application rank returned.
	LogAppRankExit = sift.LogAppRankExit
)

// Cluster is a running simulated REE cluster with the SIFT environment
// installed: one daemon per node, the FTM, and the Heartbeat ARMOR. All
// construction goes through NewCluster.
type Cluster struct {
	k       *sim.Kernel
	env     *sift.Environment
	handles []*AppHandle
}

// NewCluster builds a deterministic simulated cluster from the options,
// installs the SIFT environment on it (Table 1 step 1: daemons on every
// node, the FTM through one daemon, the Heartbeat ARMOR on a second
// node), and returns it ready for Submit and Run. Option validation is
// eager: conflicting placements or bad periods fail here, not mid-run.
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg, seed, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel(sim.DefaultConfig(seed))
	env := sift.New(k, cfg)
	env.Setup()
	return &Cluster{k: k, env: env}, nil
}

// Kernel exposes the simulation kernel for advanced orchestration
// (scheduling, process control). Most callers only need the Cluster
// methods.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Env exposes the underlying SIFT environment and its oracles.
func (c *Cluster) Env() *sift.Environment { return c.env }

// Log returns the environment's event log (timeline, detections,
// recoveries).
func (c *Cluster) Log() *sift.EventLog { return c.env.Log }

// SharedFS returns the cluster-wide nonvolatile store that applications
// write their results to. The bytes its Read returns are read-only (see
// FS).
func (c *Cluster) SharedFS() *sim.FS { return c.k.SharedFS() }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.k.Now() }

// Submit schedules an application submission through the SCC at virtual
// time at, returning the handle to poll after the run. An application
// the cluster cannot run — placed on a node outside it, or beyond the
// FTM's rank or node-hint limits — is refused with an error, as
// Injection refuses it, and nothing is submitted.
func (c *Cluster) Submit(app *AppSpec, at time.Duration) (*AppHandle, error) {
	if err := validateApp(app, c.env.Config().Nodes); err != nil {
		return nil, fmt.Errorf("reesift: Submit: %w", err)
	}
	h := c.env.Submit(app, at)
	c.handles = append(c.handles, h)
	return h, nil
}

// At schedules fn to run at the given absolute virtual time (or
// immediately if that time has passed).
func (c *Cluster) At(at time.Duration, fn func()) {
	c.k.Schedule(at-c.k.Now(), fn)
}

// SuspendExecArmor hangs the Execution ARMOR of an application rank —
// the canonical mid-run SIFT fault. It reports whether a live process
// was found; call it from inside At for a timed fault.
func (c *Cluster) SuspendExecArmor(app AppID, rank int) bool {
	pid := c.env.ProcOf(sift.AIDExec(app, rank))
	if pid == sim.NoPID || !c.k.Alive(pid) {
		return false
	}
	c.k.Suspend(pid)
	return true
}

// KillFTM crashes the FTM process (SIGINT), reporting whether a live
// process was found.
func (c *Cluster) KillFTM() bool {
	pid := c.env.ProcOf(sift.AIDFTM)
	if pid == sim.NoPID || !c.k.Alive(pid) {
		return false
	}
	c.k.Kill(pid, "SIGINT")
	return true
}

// Run executes the simulation until the virtual-time limit (absolute
// virtual time), an explicit stop, or quiescence. It returns the
// virtual time reached. A stop latched by an earlier run is cleared.
func (c *Cluster) Run(limit time.Duration) time.Duration {
	c.k.ClearStop()
	return c.k.Run(limit)
}

// RunUntilDone executes the simulation until every application submitted
// through this Cluster has completed (stopping early) or the
// virtual-time limit passes, and reports whether all submissions
// completed. It installs the environment's AppDoneHook; callers that set
// their own hook should use Run instead.
func (c *Cluster) RunUntilDone(limit time.Duration) bool {
	pending := make(map[AppID]bool)
	for _, h := range c.handles {
		if !h.Done {
			pending[h.App.ID] = true
		}
	}
	if len(pending) == 0 {
		return true
	}
	// Only submissions tracked by this Cluster count down: applications
	// submitted through Env().Submit complete on their own schedule and
	// must not stop the run early.
	c.env.AppDoneHook = func(id AppID) {
		if !pending[id] {
			return
		}
		delete(pending, id)
		if len(pending) == 0 {
			c.k.Stop()
		}
	}
	c.k.ClearStop()
	c.k.Run(limit)
	for _, h := range c.handles {
		if !h.Done {
			return false
		}
	}
	return true
}

// Close shuts the kernel down, terminating all simulated processes.
func (c *Cluster) Close() { c.k.Shutdown() }
