package experiments

import (
	"fmt"
	"strings"

	"reesift/internal/inject"
	"reesift/pkg/reesift"
)

// Table6 reproduces the register and text-segment injection results:
// failures classified as segmentation fault / illegal instruction / hang /
// assertion, successful recoveries, and execution times. Text-segment
// errors must produce relatively more illegal instructions and more system
// failures than register errors (Section 6).
func Table6(sc Scale) (*reesift.Result, error) {
	// One failure-quota cell per model/target pair: each searches until
	// sc.FailureQuota target failures are observed (the paper's "between
	// 90 and 100 error activations per target"), bounded by
	// sc.MaxRunsPerCell trials.
	regtextModels := []inject.Model{inject.ModelRegister, inject.ModelText}
	var cells []reesift.CampaignCell
	for _, model := range regtextModels {
		for _, target := range table4Targets {
			cells = append(cells, reesift.CampaignCell{
				Name:         model.String() + "/" + target.String(),
				Runs:         sc.MaxRunsPerCell,
				FailureQuota: sc.FailureQuota,
				Injection:    roverInjection(model, target),
			})
		}
	}
	cres, err := runCampaign(sc, "table6", cells...)
	if err != nil {
		return nil, err
	}

	sys := make(map[string]int)
	t := &Table{
		ID:    "table6",
		Title: "Register and text-segment injection results",
		Header: []string{"TARGET", "FAILURES", "SUC. REC.",
			"SEG. FAULT", "ILLEGAL INSTR.", "HANG", "ASSERT.",
			"PERCEIVED (s)", "ACTUAL (s)", "RECOVERY (s)"},
	}
	prev := ""
	for _, cr := range cres.Cells {
		model, target, _ := strings.Cut(cr.Name, "/")
		if model != prev {
			prev = model
			t.Rows = append(t.Rows, strRow("-- "+model+" --", "", "", "", "", "", "", "", "", ""))
		}
		a := foldAgg(&cr)
		sys[model] += a.sysFailures
		t.Rows = append(t.Rows, []Cell{
			str(target),
			num(a.failures),
			num(a.sucRec),
			num(a.segFault),
			num(a.illegal),
			num(a.hang),
			num(a.assertion),
			secCell(&a.perceived),
			secCell(&a.actual),
			secCell(&a.recovery),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 11 system failures in ~700 failures, all from checkpoint corruption or error propagation; text errors dominated",
		fmt.Sprintf("observed system failures: register=%d text=%d",
			sys[inject.ModelRegister.String()], sys[inject.ModelText.String()]))
	return reesift.NewResult(t), nil
}
