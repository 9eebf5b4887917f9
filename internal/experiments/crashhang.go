package experiments

import (
	"fmt"
	"strings"
	"time"

	"reesift/internal/inject"
	"reesift/internal/stats"
	"reesift/pkg/reesift"
)

// table4Targets are the SIGINT/SIGSTOP injection subjects in paper order.
var table4Targets = []inject.TargetKind{
	inject.TargetApp, inject.TargetFTM, inject.TargetExecArmor, inject.TargetHeartbeat,
}

// table4Models are the crash/hang error models.
var table4Models = []inject.Model{inject.ModelSIGINT, inject.ModelSIGSTOP}

// Table4 reproduces the SIGINT/SIGSTOP injection results: per target, the
// number of errors injected, successful recoveries, perceived and actual
// application execution times, and recovery times. The whole experiment
// is one public campaign — a failure-free baseline cell plus one cell
// per model/target pair.
func Table4(sc Scale) (*reesift.Result, error) {
	cells := []reesift.CampaignCell{{
		Name:      "baseline",
		Runs:      max(3, sc.Runs/4),
		Injection: roverInjection(inject.ModelNone, inject.TargetNone),
	}}
	for _, model := range table4Models {
		for _, target := range table4Targets {
			cells = append(cells, reesift.CampaignCell{
				Name:      model.String() + "/" + target.String(),
				Runs:      sc.Runs,
				Injection: roverInjection(model, target),
			})
		}
	}
	cres, err := runCampaign(sc, "table4", cells...)
	if err != nil {
		return nil, err
	}

	base := foldAgg(&cres.Cells[0])
	total := 0

	t := &Table{
		ID:    "table4",
		Title: "SIGINT/SIGSTOP injection results",
		Header: []string{"TARGET", "ERRORS INJECTED", "SUCCESSFUL RECOVERIES",
			"PERCEIVED (s)", "ACTUAL (s)", "RECOVERY TIME (s)"},
	}
	prev := ""
	for _, cr := range cres.Cells[1:] {
		model, target, _ := strings.Cut(cr.Name, "/")
		if model != prev {
			prev = model
			t.Rows = append(t.Rows, strRow("-- "+model+" --", "", "", "", "", ""))
			t.Rows = append(t.Rows, []Cell{str("Baseline"), str("-"), str("-"),
				secCell(&base.perceived), secCell(&base.actual), str("-")})
		}
		a := foldAgg(&cr)
		total += a.injectedRuns
		recoveries := a.injectedRuns - a.sysFailures
		t.Rows = append(t.Rows, []Cell{
			str(target),
			num(a.injectedRuns),
			num(recoveries),
			secCell(&a.perceived),
			secCell(&a.actual),
			secCell(&a.recovery),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n = %d injected runs; no-failure 95%% bound on unrecoverable-failure probability: p < %.5f (Section 5)",
			total, stats.NoFailureBound(total)))
	return reesift.NewResult(t), nil
}

// table5Periods is the Section 5.3 heartbeat-period axis.
var table5Periods = []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second, 30 * time.Second}

// Table5 reproduces the heartbeat-frequency study (Section 5.3): SIGINT
// into the FTM under heartbeat periods of 5/10/20/30 s, authored as a
// public Sweep over the cluster's heartbeat-period option. Perceived
// time grows with the period (detection latency); actual time stays
// flat.
func Table5(sc Scale) (*reesift.Result, error) {
	points := make([]reesift.SweepPoint, len(table5Periods))
	for i, period := range table5Periods {
		points[i] = reesift.ClusterPoint(fmt.Sprintf("%ds", int(period.Seconds())),
			reesift.WithHeartbeatPeriod(period))
	}
	cres, err := (&reesift.Sweep{
		Name:        "table5",
		Seed:        sc.Seed,
		Workers:     sc.Workers,
		RunsPerCell: sc.Table5Runs,
		Census:      sc.Census,
		Trace:       sc.Trace,
		Replay:      sc.Replay,
		Base:        roverInjection(inject.ModelSIGINT, inject.TargetFTM),
	}).Axis("period", points...).Run()
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "table5",
		Title:  "Application execution time with varying heartbeat periods (SIGINT into FTM)",
		Header: []string{"HEARTBEAT PERIOD (s)", "PERCEIVED (s)", "ACTUAL (s)"},
	}
	for i, period := range table5Periods {
		a := foldAgg(&cres.Cells[i])
		t.Rows = append(t.Rows, []Cell{
			flt(period.Seconds(), 0),
			secCell(&a.perceived),
			secCell(&a.actual),
		})
	}
	t.Notes = append(t.Notes, "paper: perceived 77.9 -> 96.7 s from 5 s to 30 s periods; actual flat at ~73 s")
	return reesift.NewResult(t), nil
}
