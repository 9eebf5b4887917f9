package experiments

import (
	"fmt"
	"time"

	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/pkg/reesift"
)

// The scale scenario pushes the simulator three orders of magnitude past
// the paper's 4-node testbed: clusters of up to 1000 nodes running
// dozens of applications (thousands of Execution ARMORs) under
// node-crash load. It exists to demonstrate two things at once — that
// the recovery subsystem's guarantees survive the jump in scale, and
// that the zero-allocation kernel hot path makes such runs cheap enough
// for CI (`reesift -exp scale -scale paper` times the full sweep, the
// 1000-node cell included).
//
// Three sift-layer policies make the jump feasible and are exercised
// here: spread placement (least-loaded rank assignment, ranks kept off
// the FTM's node), scoped submit-time location broadcasts (O(ranks²)
// instead of O(nodes × ranks) announcement bursts), and daemon rebind
// (relaunched ranks re-attach to a daemon reinstalled underneath them
// instead of wedging on the dead incarnation's address).

// scalePIPeriod is the synthetic application's progress-indicator
// period. 20 s matches the texture-analysis program's filter time, so
// detection latencies stay comparable to the paper's.
const scalePIPeriod = 20 * time.Second

// scaleSubmitAt leaves the SCC room to register every daemon (commands
// are spaced by the uplink delay) before applications arrive. The SCC
// drains its registration loop before processing submissions, so this
// is about keeping the submission time itself out of the setup phase,
// not correctness.
const scaleSubmitAt = 30 * time.Second

// scaleCell is one cluster size of the scale campaign.
type scaleCell struct {
	nodes int
	apps  int
	ranks int // per app; must stay < 64 (FTM kill bitmask) and < 100 (AID packing)
	runs  int
	beats int // progress beats per rank; work = beats × scalePIPeriod
}

func (c scaleCell) id() string { return fmt.Sprintf("nodes/%d", c.nodes) }

// scaleCells keys the cluster sizes off the scale's run count the same
// way the other scenarios key their campaign sizes: the golden tests'
// tiny scale gets small clusters, CI's small scale mid-size ones, and
// the paper scale the full 100/400/1000 sweep (2028 Execution ARMORs at
// the top cell).
func scaleCells(sc Scale) []scaleCell {
	switch {
	case sc.Runs >= 100: // paper scale
		return []scaleCell{
			{nodes: 100, apps: 8, ranks: 13, runs: 2, beats: 10},
			{nodes: 400, apps: 20, ranks: 26, runs: 1, beats: 10},
			{nodes: 1000, apps: 39, ranks: 52, runs: 1, beats: 10},
		}
	case sc.Runs >= 10: // small scale (CI CLI runs)
		return []scaleCell{
			{nodes: 16, apps: 3, ranks: 5, runs: 2, beats: 5},
			{nodes: 48, apps: 6, ranks: 8, runs: 2, beats: 5},
		}
	default: // tiny scale (golden tests)
		return []scaleCell{
			{nodes: 8, apps: 2, ranks: 3, runs: 2, beats: 4},
			{nodes: 16, apps: 3, ranks: 4, runs: 2, beats: 4},
		}
	}
}

// scaleNodeNames mirrors WithNodes's generated hostnames (n1..nN).
func scaleNodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// scaleApp builds one synthetic application: every rank announces a
// progress indicator and beats it a fixed number of times, exercising
// the full monitoring protocol (reliable channels, watchdogs, restart)
// without numeric compute — the scenario measures the infrastructure,
// not FFTs. The Nodes list is only a placement hint (two names, kept
// short because the FTM's AppParam element checkpoints it); spread
// placement overrides it.
func scaleApp(id sift.AppID, hint []string, ranks, beats int) *sift.AppSpec {
	spec := &sift.AppSpec{
		ID:              id,
		Name:            fmt.Sprintf("scale-%d", id),
		Ranks:           ranks,
		Nodes:           hint,
		PIPeriod:        scalePIPeriod,
		MPIStartTimeout: 10 * time.Second,
	}
	spec.Launcher = func(ac *sift.AppContext) { scaleRank(ac, spec, beats) }
	return spec
}

// scaleRank is the synthetic rank body. Rank 0 launches the other ranks
// and reports their PIDs one at a time (per-rank messages keep FTM-side
// processing order deterministic); the others wait for their monitoring
// channel. Every rank then beats its progress indicator and exits
// cleanly. A restarted incarnation simply redoes its beats.
func scaleRank(ac *sift.AppContext, spec *sift.AppSpec, beats int) {
	if ac.Rank == 0 {
		for r := 1; r < spec.Ranks; r++ {
			pid := ac.SpawnRank("", r)
			ac.SendPIDs(map[int]sim.PID{r: pid})
		}
	} else if !ac.WaitChannelOpen(2 * time.Minute) {
		ac.Proc.Exit(3, "channel open timeout")
	}
	ac.PICreate(scalePIPeriod)
	for i := 1; i <= beats; i++ {
		ac.Proc.Sleep(scalePIPeriod)
		ac.Step()
		ac.Progress(uint64(i))
	}
	ac.NotifyExiting()
}

// scaleInjection assembles one cell's injection: the cluster at size,
// the scale policies on, centralized checkpoints (required to survive
// node loss), slow heartbeats (steady-state load at 1000 nodes), a fast
// uplink (setup would otherwise take 400 s of simulated time at the top
// cell), and a node crash drawn during the first half of the
// applications' work.
func scaleInjection(c scaleCell) reesift.Injection {
	names := scaleNodeNames(c.nodes)
	apps := make([]*sift.AppSpec, c.apps)
	for i := range apps {
		id := sift.AppID(i + 1) // IDs start at 1: AID packing reserves app 0's range
		hint := []string{
			names[1+(2*i)%(len(names)-1)],
			names[1+(2*i+1)%(len(names)-1)],
		}
		apps[i] = scaleApp(id, hint, c.ranks, c.beats)
	}
	work := time.Duration(c.beats) * scalePIPeriod
	return reesift.Injection{
		Model:  inject.ModelNodeCrash,
		Target: inject.TargetExecArmor,
		Apps:   apps,
		Cluster: []reesift.Option{
			reesift.WithNodes(c.nodes),
			reesift.WithSpreadPlacement(),
			reesift.WithScopedLocationBroadcast(),
			reesift.WithDaemonRebind(),
			reesift.WithSharedCheckpoints(),
			reesift.WithHeartbeatPeriod(30 * time.Second),
			reesift.WithDaemonAYAPeriod(30 * time.Second),
			reesift.WithSCCCommandDelay(2 * time.Millisecond),
		},
		SubmitAt:         scaleSubmitAt,
		Window:           work / 2,
		NodeRestartAfter: 60 * time.Second,
		// Worst case is a crash near the end of the window followed by a
		// full redo of the application's work, with detection and node
		// restart in between.
		Timeout: scaleSubmitAt + 2*work + 8*time.Minute,
	}
}

// TableScale runs the scale campaign: per cluster size, a fleet of
// synthetic applications is spread across the nodes and a node hosting
// application ranks (and often a recoverer) is crashed mid-run. The
// table reports only deterministic columns — run outcomes, recovery
// counters, events fired, simulated time.
func TableScale(sc Scale) (*reesift.Result, error) {
	t := &Table{
		ID:    "scale",
		Title: "Scale: node-crash load on 100-1000-node clusters with spread placement",
		Header: []string{"CELL", "NODES", "APPS", "EXEC ARMORS", "INJECTED RUNS", "COMPLETED",
			"SYSTEM FAILURES", "DAEMON REINSTALLS", "EVENTS FIRED", "SIM TIME (s)"},
	}
	cells := scaleCells(sc)
	specs := make([]reesift.CampaignCell, len(cells))
	for i, cell := range cells {
		specs[i] = reesift.CampaignCell{Name: cell.id(), Runs: cell.runs, Injection: scaleInjection(cell)}
	}
	cres, err := runCampaign(sc, "scale", specs...)
	if err != nil {
		return nil, err
	}
	aggs := make([]agg, len(cells))
	events := make([]uint64, len(cells))
	for i, cr := range cres.Cells {
		cell := cells[i]
		aggs[i] = foldAgg(&cr)
		var simTotal time.Duration
		for _, r := range cr.Results {
			events[i] += r.EventsFired
			simTotal += r.SimTime
		}
		a := aggs[i]
		t.Rows = append(t.Rows, []Cell{
			str(cell.id()),
			num(cell.nodes),
			num(cell.apps),
			num(cell.apps * cell.ranks),
			num(a.injectedRuns),
			num(a.completed),
			num(a.sysFailures),
			num(a.daemonReinstalls),
			num(int(events[i])),
			durCell(simTotal),
		})
	}
	t.Notes = append(t.Notes,
		"each run spreads the applications' ranks over the cluster (least-loaded placement, ranks kept off the FTM's node) and crashes the node hosting the first application's rank-0 Execution ARMOR mid-run",
		"submit-time location announcements are scoped to the daemons routing each application's traffic; recovery-time announcements stay cluster-wide",
		"EVENTS FIRED and SIM TIME are deterministic per seed; wall-derived throughput (events/sec, simulated seconds per wall second) is reported by the scale benchmarks, not pinned here",
		"all cells use centralized checkpoint storage (Section 3.4: required for tolerating node failures)",
	)

	// Embedded acceptance checks: the scale claim is that the recovery
	// guarantees hold three orders of magnitude past the paper's
	// testbed, not merely that big runs finish.
	for i, cell := range cells {
		a := aggs[i]
		if a.injectedRuns == 0 {
			return reesift.NewResult(t), fmt.Errorf("scale: cell %q never injected", cell.id())
		}
		if a.completed == 0 {
			return reesift.NewResult(t), fmt.Errorf("scale: cell %q never completed a run", cell.id())
		}
		if a.sysFailures != 0 {
			return reesift.NewResult(t), fmt.Errorf("scale: cell %q has %d system failures — node crashes are not survivable at this size", cell.id(), a.sysFailures)
		}
		if a.daemonReinstalls == 0 {
			return reesift.NewResult(t), fmt.Errorf("scale: cell %q never reinstalled a daemon — the node-crash load did not engage recovery", cell.id())
		}
		if events[i] == 0 {
			return reesift.NewResult(t), fmt.Errorf("scale: cell %q fired no events", cell.id())
		}
	}
	return reesift.NewResult(t), nil
}
