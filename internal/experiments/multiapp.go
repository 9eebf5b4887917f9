package experiments

import (
	"slices"
	"time"

	"reesift/internal/apps/otis"
	"reesift/internal/apps/rover"
	engine "reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/internal/stats"
	"reesift/pkg/reesift"
)

// multiAppSpecs builds the Section 8 configuration: Mars Rover and OTIS
// simultaneously on a six-node testbed, each application's processes on
// dedicated nodes. The injection subject (OTIS) is Apps[0].
func multiAppSpecs() []*sift.AppSpec {
	o := otis.Spec(2, []string{"n3", "n4"}, otis.DefaultParams())
	r := rover.Spec(1, []string{"n1", "n2"}, rover.DefaultParams())
	return []*sift.AppSpec{o, r}
}

// multiAppModels are the error models of the Section 8 campaigns.
var multiAppModels = []inject.Model{
	inject.ModelSIGINT, inject.ModelSIGSTOP, inject.ModelRegister, inject.ModelText,
}

// Table11And12 reproduces the two-application experiments: Table 11 (mean
// performance under injection) and Table 12 (error classification). The
// load of a second application must not degrade recovery: ARMOR recovery
// time stays near the single-application value, and the perceived/actual
// difference stays around one second.
func Table11And12(sc Scale) (*reesift.Result, error) {
	// Baseline: both applications standalone (no SIFT) on six nodes.
	type basePair struct {
		rover, otis time.Duration
		rOK, oOK    bool
	}
	var baseRover, baseOTIS stats.Sample
	baseRuns := max(2, sc.MultiAppRuns/2)
	for _, b := range engine.Map(sc.Workers, baseRuns, func(run int) basePair {
		k := sim.NewKernel(sim.DefaultConfig(engine.DeriveSeed(sc.Seed, "table11/baseline", run)))
		defer k.Shutdown()
		rspec := rover.Spec(1, []string{"n1", "n2"}, rover.DefaultParams())
		ospec := otis.Spec(2, []string{"n3", "n4"}, otis.DefaultParams())
		mr := sift.RunStandalone(k, rspec, time.Second)
		mo := sift.RunStandalone(k, ospec, time.Second)
		k.Run(20 * time.Minute)
		var b basePair
		b.rover, b.rOK = mr()
		b.otis, b.oOK = mo()
		return b
	}) {
		if b.rOK {
			baseRover.AddDuration(b.rover)
		}
		if b.oOK {
			baseOTIS.AddDuration(b.otis)
		}
	}

	// One public campaign covers every injection cell: the OTIS
	// application cells plus the three ARMOR-target cells per model.
	armorTargets := []inject.TargetKind{inject.TargetFTM, inject.TargetExecArmor, inject.TargetHeartbeat}
	var cells []reesift.CampaignCell
	for _, model := range multiAppModels {
		cells = append(cells, reesift.CampaignCell{
			Name: "otis/" + model.String(),
			Runs: sc.MultiAppRuns,
			Injection: reesift.Injection{
				Model: model, Target: inject.TargetApp,
				Apps: multiAppSpecs(),
			},
		})
		for _, target := range armorTargets {
			cells = append(cells, reesift.CampaignCell{
				Name: "armors/" + model.String() + "/" + target.String(),
				Runs: sc.MultiAppRuns,
				Injection: reesift.Injection{
					Model: model, Target: target,
					Apps: multiAppSpecs(),
				},
			})
		}
	}
	cres, err := runCampaign(sc, "table11", cells...)
	if err != nil {
		return nil, err
	}
	// fold folds, in campaign order, the results of every cell aimed at
	// the OTIS application (app) or at the ARMORs (!app) under one of the
	// given models, with each application's times indexed by AppID.
	type times struct{ perceived, actual stats.Sample }
	fold := func(app bool, models ...inject.Model) (a agg, apps [3]times) {
		for _, cr := range cres.Cells {
			for _, r := range cr.Results {
				if (r.Target == inject.TargetApp) != app || !slices.Contains(models, r.Model) {
					continue
				}
				a.add(r)
				for id, m := range r.PerApp {
					if m.Done {
						apps[id].perceived.AddDuration(m.Perceived)
						apps[id].actual.AddDuration(m.Actual)
					}
				}
			}
		}
		return a, apps
	}

	// Table 11: mean performance summary across all models.
	otisAll, otisTimes := fold(true, multiAppModels...)
	armorAll, armorTimes := fold(false, multiAppModels...)
	t11 := &Table{
		ID:    "table11",
		Title: "Performance under error injection with two applications (six nodes)",
		Header: []string{"TARGET", "ROVER PERCEIVED (s)", "ROVER ACTUAL (s)",
			"OTIS PERCEIVED (s)", "OTIS ACTUAL (s)", "RECOVERY (s)"},
		Rows: [][]Cell{
			{str("Baseline (no SIFT)"), str("-"), secCell(&baseRover), str("-"), secCell(&baseOTIS), str("-")},
			{str("OTIS app"), secCell(&otisTimes[1].perceived), secCell(&otisTimes[1].actual),
				secCell(&otisTimes[2].perceived), secCell(&otisTimes[2].actual), secCell(&otisAll.recovery)},
			{str("ARMORs"), secCell(&armorTimes[1].perceived), secCell(&armorTimes[1].actual),
				secCell(&armorTimes[2].perceived), secCell(&armorTimes[2].actual), secCell(&armorAll.recovery)},
		},
		Notes: []string{"paper: SIFT recovery adds 1-3% to baseline execution; recovery time matches the single-app value"},
	}

	// Table 12: error classification grouped by model family.
	t12 := &Table{
		ID:    "table12",
		Title: "Error classification with two applications",
		Header: []string{"TARGET", "FAILURES", "SUC. REC.",
			"SEG. FAULT", "ILLEGAL", "HANG", "SELF-CHECK"},
	}
	group := func(label string, app bool, models ...inject.Model) {
		g, _ := fold(app, models...)
		t12.Rows = append(t12.Rows, []Cell{
			str(label),
			num(g.failures),
			num(g.sucRec),
			num(g.segFault),
			num(g.illegal),
			num(g.hang),
			num(g.assertion),
		})
	}
	t12.Rows = append(t12.Rows, strRow("-- SIGINT/SIGSTOP --", "", "", "", "", "", ""))
	group("OTIS app", true, inject.ModelSIGINT, inject.ModelSIGSTOP)
	group("ARMORs", false, inject.ModelSIGINT, inject.ModelSIGSTOP)
	t12.Rows = append(t12.Rows, strRow("-- register/text --", "", "", "", "", "", ""))
	group("OTIS app", true, inject.ModelRegister, inject.ModelText)
	group("ARMORs", false, inject.ModelRegister, inject.ModelText)
	t12.Notes = append(t12.Notes, "paper: all but 2 SIGINT/SIGSTOP and all but 14 register/text errors recovered")
	return reesift.NewResult(t11, t12), nil
}
