package experiments

import (
	"fmt"
	"time"

	"reesift/internal/inject"
	"reesift/pkg/reesift"
)

// sbCell is one cell of the split-brain campaign: a partition shape
// against the Heartbeat ARMOR's node, with or without incarnation
// epochs.
type sbCell struct {
	id     string
	model  inject.Model
	ablate bool
}

// splitBrainCells: both partition shapes with epochs on, plus the
// epoch-disabled ablation that reproduces the pre-epoch hazard.
var splitBrainCells = []sbCell{
	{id: "partition/one-sided", model: inject.ModelPartition},
	{id: "partition/symmetric", model: inject.ModelPartitionSym},
	{id: "partition/one-sided (no epochs)", model: inject.ModelPartition, ablate: true},
}

// Split-brain cell timing. The FTM-side heartbeat is fast and the
// Heartbeat ARMOR's own FTM poll is slow, so during the partition the
// FTM declares the unreachable node failed and installs the replacement
// Heartbeat ARMOR (next incarnation epoch) while the stale incarnation
// is still inside its own detection window; the heal lands before the
// stale side's FTM-failure timeout, so its false recovery walk replays
// into a cluster that already knows the higher epoch and is refused
// everywhere. A longer outage would instead have the stale side install
// a rogue FTM on its own partitioned node — a deeper wound than this
// scenario is about.
const (
	sbFTMHeartbeat  = 5 * time.Second
	sbHeartbeatPoll = 20 * time.Second
	sbHealAfter     = 15 * time.Second
)

// TableSplitBrain runs the split-brain reconciliation campaign: a
// network partition isolates the Heartbeat ARMOR's node (one-sided —
// the node receives nothing but can still send — and symmetric), the
// FTM declares the unreachable-but-alive node failed and migrates the
// Heartbeat ARMOR to a new node under the next incarnation epoch, and
// the partition heals, leaving two live recoverers with the same
// identity. With epochs, the cluster-side gate rejects the stale
// incarnation's traffic, the FTM re-broadcasts authoritative locations,
// and the superseded recoverer stands down: the run completes with zero
// system failures. The no-epochs ablation reproduces the pre-epoch
// hazard — the stale Heartbeat ARMOR falsely re-recovers the FTM in a
// loop, generally a system failure.
//
// The Heartbeat ARMOR is isolated on a non-application node, so the
// cells measure recoverer reconciliation alone, not the (separate)
// consequences of migrating Execution ARMORs off a falsely-declared
// node. Every cell runs under the parallel campaign engine and is a
// pure function of the scale's seed at any worker count.
func TableSplitBrain(sc Scale) (*reesift.Result, error) {
	t := &Table{
		ID:    "split-brain",
		Title: "Split-brain reconciliation: partition-then-heal against the Heartbeat ARMOR under incarnation epochs",
		Header: []string{"CELL", "INJECTED RUNS", "COMPLETED", "SYSTEM FAILURES",
			"STAND-DOWNS", "STALE REJECTIONS", "RECOVERER STOOD DOWN", "PERCEIVED (s)"},
	}
	var cells []reesift.CampaignCell
	for _, cell := range splitBrainCells {
		inj := roverInjection(cell.model, inject.TargetHeartbeat)
		inj.NetFaultFor = sbHealAfter
		inj.Cluster = []reesift.Option{
			reesift.WithSharedCheckpoints(),
			reesift.WithHeartbeatNode("node-b2"),
			reesift.WithFTMHeartbeatPeriod(sbFTMHeartbeat),
			reesift.WithHeartbeatArmorPeriod(sbHeartbeatPoll),
		}
		if cell.ablate {
			inj.Cluster = append(inj.Cluster, reesift.WithoutEpochs())
		}
		cells = append(cells, reesift.CampaignCell{
			Name:      cell.id,
			Runs:      sc.Runs,
			Injection: inj,
		})
	}
	cres, err := runCampaign(sc, "split-brain", cells...)
	if err != nil {
		return nil, err
	}
	// Embedded acceptance checks: the claim this table exists to
	// demonstrate — epochs end the duplicate-recoverer loop — must
	// actually hold, and the ablation must show the hazard was real. The
	// first violation is reported alongside the complete table.
	var checkErr error
	for i, cr := range cres.Cells {
		cell, a := splitBrainCells[i], foldAgg(&cr)
		switch {
		case checkErr != nil:
		case a.injectedRuns == 0:
			checkErr = fmt.Errorf("split-brain: cell %q never injected", cell.id)
		case cell.ablate:
			if a.sysFailures == 0 {
				checkErr = fmt.Errorf("split-brain: ablation cell %q shows no system failures — the pre-epoch hazard did not reproduce", cell.id)
			}
		case a.sysFailures != 0:
			checkErr = fmt.Errorf("split-brain: cell %q has %d system failures — the duplicate-recoverer loop is back", cell.id, a.sysFailures)
		case a.standDowns == 0:
			checkErr = fmt.Errorf("split-brain: cell %q never stood a superseded incarnation down", cell.id)
		case a.staleRecoverers == 0:
			checkErr = fmt.Errorf("split-brain: cell %q never reconciled a duplicate recoverer", cell.id)
		}
		t.Rows = append(t.Rows, []Cell{
			str(cell.id),
			num(a.injectedRuns),
			num(a.completed),
			num(a.sysFailures),
			num(a.standDowns),
			num(a.supersededEpochs),
			num(a.staleRecoverers),
			secCell(&a.perceived),
		})
	}
	t.Notes = append(t.Notes,
		"the partition isolates the Heartbeat ARMOR's node (hosting no application rank): the FTM's fast heartbeat declares the unreachable-but-alive node failed and installs a replacement recoverer under the next incarnation epoch; the heal then leaves two live Heartbeat ARMORs with the same identity",
		"with epochs, the stale incarnation's traffic is rejected cluster-wide (STALE REJECTIONS), the FTM re-broadcasts authoritative locations, and the superseded recoverer is killed on its own node (STAND-DOWNS); RECOVERER STOOD DOWN counts the runs whose stood-down incarnation was the FTM or the Heartbeat ARMOR — a reconciled split brain",
		"the no-epochs ablation reproduces the pre-epoch hazard: the healed stale Heartbeat ARMOR falsely re-recovers the FTM in a loop, generally a system failure (unable to uninstall after completion)",
		"all cells run with centralized checkpoint storage (Section 3.4) and the Heartbeat ARMOR isolated on a non-application node",
	)
	return reesift.NewResult(t), checkErr
}
