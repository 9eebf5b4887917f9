package experiments

import "reesift/pkg/reesift"

// single adapts a one-table experiment to the scenario Run signature. A
// partial table produced alongside an error is preserved in the Result
// so failing scenarios still render what they measured.
func single(f func(Scale) (*Table, error)) func(Scale) (*reesift.Result, error) {
	return func(sc Scale) (*reesift.Result, error) {
		t, err := f(sc)
		if t == nil {
			return nil, err
		}
		return reesift.NewResult(t), err
	}
}

// paired wraps a two-table experiment, preserving whatever tables were
// produced alongside an error (same contract as single).
func paired(a, b *Table, err error) (*reesift.Result, error) {
	var tables []*Table
	for _, t := range []*Table{a, b} {
		if t != nil {
			tables = append(tables, t)
		}
	}
	if len(tables) == 0 {
		return nil, err
	}
	return reesift.NewResult(tables...), err
}

// init self-registers every reproduced table and figure under its paper
// id. A new workload is one file with a registration like these; the CLI
// and every other façade consumer picks it up from the registry.
func init() {
	reesift.Register(reesift.Scenario{
		ID:    "table3",
		Title: "Baseline application execution time without fault injection",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Table3(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "table4",
		Title: "SIGINT/SIGSTOP injection results",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Table4(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "table5",
		Title: "Application execution time with varying heartbeat periods",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Table5(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "table6",
		Title: "Register and text-segment injection results",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Table6(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "table7",
		Title: "Heap injection results",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Table7(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:      "table8",
		Title:   "Targeted heap injections: system failures and assertion efficiency",
		Aliases: []string{"table9"},
		Run: func(sc Scale) (*reesift.Result, error) {
			t8, t9, _, err := Table8And9(sc)
			return paired(t8, t9, err)
		},
	})
	reesift.Register(reesift.Scenario{
		ID:    "table10",
		Title: "Heap injections into the application",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Table10(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:      "table11",
		Title:   "Two-application experiments: performance and error classification",
		Aliases: []string{"table12"},
		Run: func(sc Scale) (*reesift.Result, error) {
			t11, t12, _, err := Table11And12(sc)
			return paired(t11, t12, err)
		},
	})
	reesift.Register(reesift.Scenario{
		ID:    "fig5",
		Title: "Perceived vs actual application execution time",
		Run:   single(Figure5),
	})
	reesift.Register(reesift.Scenario{
		ID:    "fig6",
		Title: "Application hang detection latency",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Figure6(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "fig7",
		Title: "FTM failures in setup/takedown affect perceived time only",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Figure7(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "fig8",
		Title: "FTM-application correlated failure during MPI startup",
		Run:   single(Figure8),
	})
	reesift.Register(reesift.Scenario{
		ID:    "fig9",
		Title: "SAN model of SIFT-induced application failures",
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := Figure9(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:    "fig10",
		Title: "Execution ARMOR registration race",
		Run:   single(Figure10),
	})
	reesift.Register(reesift.Scenario{
		ID:    "ablation-watchdog",
		Title: "Hang detection: polling vs interrupt-driven watchdog",
		Run:   single(AblationWatchdog),
	})
	reesift.Register(reesift.Scenario{
		ID:    "ablation-assertions",
		Title: "Targeted heap injections with and without element assertions",
		Run:   single(AblationAssertions),
	})
	reesift.Register(reesift.Scenario{
		ID:      "ablation-checkpoints",
		Title:   "Node failure with node-local vs centralized checkpoint storage",
		Aliases: []string{"ablation-checkpoint-store"},
		Run:     single(AblationSharedCheckpoints),
	})
	reesift.Register(reesift.Scenario{
		ID:      "ext-faults",
		Title:   "Extension: communication, storage, node, and partition faults",
		Aliases: []string{"extension"},
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := TableExtension(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:      "recovery",
		Title:   "Recovery subsystem: application-node crashes and compound FTM/daemon losses",
		Aliases: []string{"recovery-subsystem"},
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := TableRecovery(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:      "recovery-sweep",
		Title:   "Recovery-time tuning: node-restart delay x heartbeat period (public Sweep API)",
		Aliases: []string{"recovery-tuning"},
		Run:     RecoverySweep,
	})
	reesift.Register(reesift.Scenario{
		ID:      "split-brain",
		Title:   "Split-brain reconciliation: partition-then-heal duplicate recoverers under incarnation epochs",
		Aliases: []string{"splitbrain", "epochs"},
		Run: single(func(sc Scale) (*Table, error) {
			t, _, err := TableSplitBrain(sc)
			return t, err
		}),
	})
	reesift.Register(reesift.Scenario{
		ID:      "scale",
		Title:   "Scale: node-crash load on 100-1000-node clusters with spread placement",
		Aliases: []string{"scale-1000"},
		Run:     single(TableScale),
	})
	reesift.Register(reesift.Scenario{
		ID:      "chaos",
		Title:   "Continuous chaos: long-horizon fault arrival processes, availability, and MTTR",
		Aliases: []string{"chaos-campaign"},
		Run:     Chaos,
	})
}
