package experiments

import (
	"fmt"

	"reesift/internal/inject"
	"reesift/pkg/reesift"
)

// extCell is one model/target cell of the extension table.
type extCell struct {
	model  inject.Model
	target inject.TargetKind
	// rank selects the targeted application rank / Execution ARMOR.
	rank int
	// shared runs the cell with centralized checkpoint storage — the
	// Section 3.4 requirement the whole-node cells depend on for
	// migrated ARMOR state to survive.
	shared bool
	// verdict wires the rover output verifier so the cell classifies
	// application output (correct / incorrect / missing).
	verdict bool
}

// extCells are the extension campaign's cells in presentation order. The
// communication-fault models run against the paper's four targets where
// the fault surface is reachable. The node-crash cells target the
// default placement — application-hosting nodes, where a crash takes an
// application rank and its daemon along with the SIFT target: the
// recovery subsystem (boot agent, SCC placement-table re-registration,
// location-independent FTM migration) makes those survivable. The
// shared-disk and partition cells exercise the cluster-wide store and
// the FTM's node-declared-failed path under asymmetric reachability.
var extCells = []extCell{
	{model: inject.ModelMsgDrop, target: inject.TargetApp},
	{model: inject.ModelMsgDrop, target: inject.TargetFTM},
	{model: inject.ModelMsgDrop, target: inject.TargetHeartbeat},
	{model: inject.ModelMsgCorrupt, target: inject.TargetFTM},
	{model: inject.ModelMsgCorrupt, target: inject.TargetExecArmor},
	{model: inject.ModelMsgCorrupt, target: inject.TargetHeartbeat},
	{model: inject.ModelCheckpoint, target: inject.TargetFTM},
	{model: inject.ModelCheckpoint, target: inject.TargetExecArmor},
	{model: inject.ModelCheckpoint, target: inject.TargetHeartbeat},
	{model: inject.ModelNodeCrash, target: inject.TargetFTM, shared: true},
	{model: inject.ModelNodeCrash, target: inject.TargetHeartbeat, shared: true},
	{model: inject.ModelSharedDisk, target: inject.TargetApp, verdict: true},
	{model: inject.ModelPartition, target: inject.TargetApp, rank: 1, shared: true, verdict: true},
	{model: inject.ModelPartition, target: inject.TargetHeartbeat, shared: true, verdict: true},
}

// TableExtension runs the extension campaigns: the REE paper's untested
// communication-fault axis (message omission and value corruption on the
// target's network traffic), checkpoint-store corruption (the paper's
// "error corrupted the FTM's checkpoint prior to crashing" scenario as a
// first-class campaign), whole-node crashes against application-hosting
// nodes, shared-store corruption, and one-sided network partitions.
// Every cell runs under the parallel campaign engine and is a pure
// function of the scale's seed at any worker count.
func TableExtension(sc Scale) (*reesift.Result, error) {
	check, err := roverVerdictCheck()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ext-faults",
		Title: "Extension: communication, storage, node, and partition faults (beyond Table 2)",
		Header: []string{"MODEL", "TARGET", "INJECTED RUNS", "FAILURES",
			"SUCCESSFUL RECOVERIES", "SYSTEM FAILURES", "VERDICTS C/I/M", "PERCEIVED (s)"},
	}
	var cells []reesift.CampaignCell
	for _, cell := range extCells {
		inj := roverInjection(cell.model, cell.target)
		inj.Rank = cell.rank
		if cell.shared {
			inj.Cluster = []reesift.Option{reesift.WithSharedCheckpoints()}
		}
		if cell.verdict {
			inj.CheckVerdict = check
		}
		cells = append(cells, reesift.CampaignCell{
			Name:      fmt.Sprintf("%s/%s", cell.model, cell.target),
			Runs:      sc.Runs,
			Injection: inj,
		})
	}
	cres, err := runCampaign(sc, "ext", cells...)
	if err != nil {
		return nil, err
	}
	for i, cr := range cres.Cells {
		cell, a := extCells[i], foldAgg(&cr)
		verdicts := "-"
		if cell.verdict {
			verdicts = fmt.Sprintf("%d/%d/%d", a.verdictCorrect, a.verdictIncorrect, a.verdictMissing)
		}
		t.Rows = append(t.Rows, []Cell{
			str(cell.model.String()),
			str(cell.target.String()),
			num(a.injectedRuns),
			num(a.failures),
			num(a.sucRec),
			num(a.sysFailures),
			str(verdicts),
			secCell(&a.perceived),
		})
	}
	t.Notes = append(t.Notes,
		"msg-drop omissions are largely masked by the reliable channels' retransmission; msg-corrupt fail-silence violations propagate to whoever parses the message (Section 6's crash-loop mechanism)",
		"node-crash cells target the default placement — application-hosting nodes: the boot agent reinstalls the daemon on restart, the SCC re-registers placed ARMORs, and the FTM migrates off its fixed node when its host dies (see the recovery scenario)",
		"node-crash and partition cells run with centralized checkpoint storage (Section 3.4)",
		"shared-disk and partition cells classify the application output: C/I/M = correct / incorrect / missing verdicts",
		"partition cells: the FTM declares the unreachable (but alive) node failed and migrates its ARMORs under the next incarnation epoch, so the heal's duplicate recoverers reconcile — the stale Heartbeat ARMOR's replayed recovery traffic is rejected cluster-wide and it stands down instead of re-recovering the FTM in a loop (the split-brain scenario isolates this and shows zero system failures)",
		"the partition cells' residual system failures are the false declaration's other cost at this default placement: Execution ARMORs migrated off a node whose application rank is still alive leave the application in a restart loop",
	)
	return reesift.NewResult(t), nil
}
