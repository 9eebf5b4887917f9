package experiments

import (
	"fmt"

	"reesift/internal/inject"
	"reesift/pkg/reesift"
)

// table7Targets: heap injections target only the SIFT processes.
var table7Targets = []inject.TargetKind{
	inject.TargetFTM, inject.TargetExecArmor, inject.TargetHeartbeat,
}

// Table7 reproduces the heap injection results: repeated single-bit flips
// into live element state until the target fails. Roughly half the runs
// show any effect (Section 7.1).
func Table7(sc Scale) (*reesift.Result, error) {
	t := &Table{
		ID:    "table7",
		Title: "Heap injection results",
		Header: []string{"TARGET", "RUNS", "FAILURES", "SUC. REC.",
			"PERCEIVED (s)", "ACTUAL (s)", "RECOVERY (s)"},
	}
	var cells []reesift.CampaignCell
	for _, target := range table7Targets {
		cells = append(cells, reesift.CampaignCell{
			Name:      target.String(),
			Runs:      sc.Runs,
			Injection: roverInjection(inject.ModelHeap, target),
		})
	}
	cres, err := runCampaign(sc, "table7", cells...)
	if err != nil {
		return nil, err
	}
	for _, cr := range cres.Cells {
		a := foldAgg(&cr)
		t.Rows = append(t.Rows, []Cell{
			str(cr.Name),
			num(sc.Runs),
			num(a.failures),
			num(a.sucRec),
			secCell(&a.perceived),
			secCell(&a.actual),
			secCell(&a.recovery),
		})
	}
	t.Notes = append(t.Notes, "paper: 54/41/28 failures for FTM/Execution/Heartbeat from 100 runs each; all but one recovered")
	return reesift.NewResult(t), nil
}

// ftmElements are the five Table 8 targets.
var ftmElements = []string{
	"mgr_armor_info", "exec_armor_info", "app_param", "mgr_app_detect", "node_mgmt",
}

// Table8And9 runs the targeted non-pointer heap injections into the five
// FTM elements (one error per run) and produces both Table 8 (system
// failures by run phase) and Table 9 (assertion efficiency).
func Table8And9(sc Scale) (*reesift.Result, error) {
	modes := []inject.SystemFailureMode{
		inject.SysRegisterDaemons, inject.SysInstallExecArmors,
		inject.SysStartApplication, inject.SysUninstallAfterCompletion,
		inject.SysAppNotCompleted,
	}
	var cells []reesift.CampaignCell
	for _, element := range ftmElements {
		inj := roverInjection(inject.ModelHeapData, inject.TargetFTM)
		inj.Element = element
		cells = append(cells, reesift.CampaignCell{
			Name:      element,
			Runs:      sc.TargetedHeapRuns,
			Injection: inj,
		})
	}
	cres, err := runCampaign(sc, "table8", cells...)
	if err != nil {
		return nil, err
	}
	t8 := &Table{
		ID:    "table8",
		Title: "System failures observed through targeted heap injections (per FTM element)",
		Header: []string{"ELEMENT", "UNABLE TO REGISTER DAEMONS", "UNABLE TO INSTALL EXEC ARMORS",
			"UNABLE TO START APP", "UNABLE TO UNINSTALL", "NOT COMPLETED", "TOTAL"},
	}
	t9 := &Table{
		ID:    "table9",
		Title: "Efficiency of assertion checks in preventing system failures",
		Header: []string{"ELEMENT", "SYS FAILURES WITHOUT ASSERTION", "SYS FAILURES AFTER ASSERTION",
			"SUCCESSFUL RECOVERY AFTER ASSERTION"},
	}
	totalFired, totalSaved := 0, 0
	for _, cr := range cres.Cells {
		sys := make(map[inject.SystemFailureMode]int)
		fired, sysAfterAssert, savedByAssert, sysNoAssert := 0, 0, 0, 0
		for _, res := range cr.Results {
			if res.Injected == 0 {
				continue
			}
			if res.SystemFailure {
				sys[res.SysMode]++
			}
			if res.AssertionFired {
				fired++
				if res.SystemFailure {
					sysAfterAssert++
				} else {
					savedByAssert++
				}
			} else if res.SystemFailure {
				sysNoAssert++
			}
		}
		row := []Cell{str(cr.Name)}
		total := 0
		for _, m := range modes {
			total += sys[m]
			row = append(row, num(sys[m]))
		}
		t8.Rows = append(t8.Rows, append(row, num(total)))
		t9.Rows = append(t9.Rows, []Cell{
			str(cr.Name),
			num(sysNoAssert),
			num(sysAfterAssert),
			num(savedByAssert),
		})
		totalFired += fired
		totalSaved += savedByAssert
	}
	t8.Notes = append(t8.Notes,
		"paper: 37 system failures total; node_mgmt and mgr_armor_info were the sensitive elements; app_param and mgr_app_detect caused none")
	pct := 0.0
	if totalFired > 0 {
		pct = 100 * float64(totalSaved) / float64(totalFired)
	}
	t9.Notes = append(t9.Notes,
		fmt.Sprintf("assertions + microcheckpointing prevented system failures in %.0f%% of assertion-detected errors (paper: 58%%)", pct))
	return reesift.NewResult(t8, t9), nil
}

// Table10 reproduces the 1,000 single-bit heap injections into the
// application: most flips land in float mantissas and leave the output
// within tolerance; a few flip exponent/sign bits (incorrect output) or
// size fields (crash).
func Table10(sc Scale) (*reesift.Result, error) {
	check, err := roverVerdictCheck()
	if err != nil {
		return nil, err
	}
	// A single-cell campaign whose empty cell name keeps the historical
	// seed identity "table10".
	inj := roverInjection(inject.ModelAppHeap, inject.TargetApp)
	inj.CheckVerdict = check
	cres, err := runCampaign(sc, "table10", reesift.CampaignCell{
		Runs:      sc.AppHeapRuns,
		Injection: inj,
	})
	if err != nil {
		return nil, err
	}
	injected, noEffect, incorrect, crash, hang := 0, 0, 0, 0, 0
	for _, res := range cres.Cells[0].Results {
		if res.Injected == 0 {
			continue
		}
		injected++
		switch {
		case res.Failed && res.Class == inject.ClassHang:
			hang++
		case res.Failed:
			crash++
		case res.Verdict == "incorrect" || res.Verdict == "missing":
			incorrect++
		default:
			noEffect++
		}
	}
	t := &Table{
		ID:     "table10",
		Title:  fmt.Sprintf("Results from %d heap injections into the application", injected),
		Header: []string{"OUTCOME", "COUNT"},
		Rows: [][]Cell{
			{str("No effect (correct output)"), num(noEffect)},
			{str("Incorrect output"), num(incorrect)},
			{str("Crash"), num(crash)},
			{str("Hang"), num(hang)},
		},
		Notes: []string{"paper (1000 injections): 981 no effect / 10 incorrect / 9 crash / 0 hang"},
	}
	return reesift.NewResult(t), nil
}
