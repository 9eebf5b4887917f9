package experiments

import (
	"fmt"
	"time"

	"reesift/internal/apps/rover"
	"reesift/internal/inject"
	"reesift/internal/sim"
	"reesift/pkg/reesift"
)

// recCell is one cell of the recovery campaign: an error model aimed at
// the infrastructure the recovery subsystem exists to bring back.
type recCell struct {
	id     string
	model  inject.Model
	target inject.TargetKind
	rank   int
	// compound selects the correlated two-stage spec for ModelCompound
	// cells.
	compound *inject.CompoundSpec
	// isolate places the FTM and Heartbeat ARMOR on the non-application
	// nodes, so the cell measures a *pure* application-node crash; the
	// default placement co-locates SIFT processes with application
	// ranks, producing the compound node-loss cells.
	isolate bool
}

// recoveryCells runs node-crash campaigns against application-hosting
// nodes (the injections the pre-recovery reproduction had to dodge) and
// the correlated FTM/daemon losses of the paper's Section 6.
var recoveryCells = []recCell{
	{id: "node-crash/app-node (isolated SIFT)", model: inject.ModelNodeCrash,
		target: inject.TargetApp, rank: 1, isolate: true},
	{id: "node-crash/app-node+FTM", model: inject.ModelNodeCrash,
		target: inject.TargetFTM},
	{id: "node-crash/app-node+Heartbeat", model: inject.ModelNodeCrash,
		target: inject.TargetHeartbeat},
	{id: "compound/hb-deaf then ftm-node-crash", model: inject.ModelCompound,
		target: inject.TargetFTM},
	{id: "compound/hb-msg-drop then ftm-node-crash", model: inject.ModelCompound,
		target: inject.TargetFTM,
		compound: &inject.CompoundSpec{
			First:  inject.CompoundStage{Model: inject.ModelMsgDrop, Target: inject.TargetHeartbeat},
			Second: inject.CompoundStage{Model: inject.ModelNodeCrash, Target: inject.TargetFTM},
			Lag:    5 * time.Second,
		}},
}

// TableRecovery runs the recovery-subsystem campaigns: whole-node
// crashes against application-hosting nodes — survivable now that the
// boot agent reinstalls daemons, the SCC re-registers placed ARMORs, and
// the Heartbeat ARMOR migrates the FTM to any surviving node — plus the
// compound FTM/daemon cells that reproduce the paper's Section 6
// correlated failures on purpose. All cells run with centralized
// checkpoint storage, the paper's stated requirement for tolerating node
// failures (Section 3.4). Every cell runs under the parallel campaign
// engine and is a pure function of the scale's seed at any worker count.
func TableRecovery(sc Scale) (*reesift.Result, error) {
	t := &Table{
		ID:    "recovery",
		Title: "Recovery subsystem: node crashes on application-hosting nodes and compound FTM/daemon losses",
		Header: []string{"CELL", "INJECTED RUNS", "COMPLETED", "SYSTEM FAILURES",
			"DAEMON REINSTALLS", "FTM MIGRATIONS", "PERCEIVED (s)"},
	}
	var cells []reesift.CampaignCell
	for _, cell := range recoveryCells {
		inj := roverInjection(cell.model, cell.target)
		inj.Rank = cell.rank
		inj.Compound = cell.compound
		inj.Cluster = []reesift.Option{reesift.WithSharedCheckpoints()}
		if cell.isolate {
			inj.Cluster = append(inj.Cluster,
				reesift.WithFTMNode("node-b1"), reesift.WithHeartbeatNode("node-b2"))
		}
		cells = append(cells, reesift.CampaignCell{
			Name:      cell.id,
			Runs:      sc.Runs,
			Injection: inj,
		})
	}
	cres, err := runCampaign(sc, "recovery", cells...)
	if err != nil {
		return nil, err
	}
	// Embedded acceptance checks, in the style of the other scenarios:
	// the claims the table exists to demonstrate must actually hold. The
	// first violation is reported alongside the complete table.
	var checkErr error
	ftmMigrated := false
	for i, cr := range cres.Cells {
		cell, a := recoveryCells[i], foldAgg(&cr)
		switch {
		case checkErr != nil:
		case a.injectedRuns == 0:
			checkErr = fmt.Errorf("recovery: cell %q never injected", cell.id)
		case a.completed == 0:
			checkErr = fmt.Errorf("recovery: cell %q was 100%% system failures — the injection is unsurvivable", cell.id)
		}
		if cell.id == "node-crash/app-node+FTM" {
			ftmMigrated = a.ftmMigrations > 0
		}
		t.Rows = append(t.Rows, []Cell{
			str(cell.id),
			num(a.injectedRuns),
			num(a.completed),
			num(a.sysFailures),
			num(a.daemonReinstalls),
			num(a.ftmMigrations),
			secCell(&a.perceived),
		})
	}
	t.Notes = append(t.Notes,
		"all cells run with centralized checkpoint storage (Section 3.4: required for tolerating node failures)",
		"node-crash cells target application-hosting nodes: the boot agent reinstalls the daemon on restart and the SCC re-registers the node's processes from its placement table",
		"FTM-node cells exercise the location-independent reinstall path: the Heartbeat ARMOR walks the surviving daemons and broadcasts the FTM's new location",
		"compound cells arm two injectors with a controlled lag, reproducing the paper's Section 6 correlated failures on purpose",
	)
	if checkErr == nil && !ftmMigrated {
		checkErr = fmt.Errorf("recovery: crashing the FTM's node never migrated the FTM")
	}
	return reesift.NewResult(t), checkErr
}

// roverVerdictCheck builds the rover output verifier against the
// reference pipeline, shared by the shared-disk cells.
func roverVerdictCheck() (func(fs *sim.FS) string, error) {
	p := rover.DefaultParams()
	ref, err := rover.Reference(p)
	if err != nil {
		return nil, err
	}
	return func(fs *sim.FS) string { return rover.Verify(fs, 1, ref, p.Tolerance).String() }, nil
}
