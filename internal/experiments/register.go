package experiments

import "reesift/pkg/reesift"

// scenarios lists every reproduced table and figure under its paper id.
// A new workload is one file plus one entry here; the CLI and every
// other façade consumer picks it up from the registry.
var scenarios = []reesift.Scenario{
	{ID: "table3", Title: "Baseline application execution time without fault injection", Run: Table3},
	{ID: "table4", Title: "SIGINT/SIGSTOP injection results", Run: Table4},
	{ID: "table5", Title: "Application execution time with varying heartbeat periods", Run: Table5},
	{ID: "table6", Title: "Register and text-segment injection results", Run: Table6},
	{ID: "table7", Title: "Heap injection results", Run: Table7},
	{ID: "table8", Title: "Targeted heap injections: system failures and assertion efficiency",
		Aliases: []string{"table9"}, Run: Table8And9},
	{ID: "table10", Title: "Heap injections into the application", Run: Table10},
	{ID: "table11", Title: "Two-application experiments: performance and error classification",
		Aliases: []string{"table12"}, Run: Table11And12},
	{ID: "fig5", Title: "Perceived vs actual application execution time", Run: Figure5},
	{ID: "fig6", Title: "Application hang detection latency", Run: Figure6},
	{ID: "fig7", Title: "FTM failures in setup/takedown affect perceived time only", Run: Figure7},
	{ID: "fig8", Title: "FTM-application correlated failure during MPI startup", Run: Figure8},
	{ID: "fig9", Title: "SAN model of SIFT-induced application failures", Run: Figure9},
	{ID: "fig10", Title: "Execution ARMOR registration race", Run: Figure10},
	{ID: "ablation-watchdog", Title: "Hang detection: polling vs interrupt-driven watchdog", Run: AblationWatchdog},
	{ID: "ablation-assertions", Title: "Targeted heap injections with and without element assertions", Run: AblationAssertions},
	{ID: "ablation-checkpoints", Title: "Node failure with node-local vs centralized checkpoint storage",
		Aliases: []string{"ablation-checkpoint-store"}, Run: AblationSharedCheckpoints},
	{ID: "ext-faults", Title: "Extension: communication, storage, node, and partition faults",
		Aliases: []string{"extension"}, Run: TableExtension},
	{ID: "recovery", Title: "Recovery subsystem: application-node crashes and compound FTM/daemon losses",
		Aliases: []string{"recovery-subsystem"}, Run: TableRecovery},
	{ID: "recovery-sweep", Title: "Recovery-time tuning: node-restart delay x heartbeat period (public Sweep API)",
		Aliases: []string{"recovery-tuning"}, Run: RecoverySweep},
	{ID: "split-brain", Title: "Split-brain reconciliation: partition-then-heal duplicate recoverers under incarnation epochs",
		Aliases: []string{"splitbrain", "epochs"}, Run: TableSplitBrain},
	{ID: "scale", Title: "Scale: node-crash load on 100-1000-node clusters with spread placement",
		Aliases: []string{"scale-1000"}, Run: TableScale},
	{ID: "chaos", Title: "Continuous chaos: long-horizon fault arrival processes, availability, and MTTR",
		Aliases: []string{"chaos-campaign"}, Run: Chaos},
}

func init() {
	for _, s := range scenarios {
		reesift.Register(s)
	}
}
