package experiments

import (
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

// multiAgg aggregates a two-application campaign.
type multiAgg struct {
	agg
	roverPerceived stats.Sample
	roverActual    stats.Sample
	otisPerceived  stats.Sample
	otisActual     stats.Sample
}

func (m *multiAgg) addMulti(r inject.Result) {
	m.add(r)
	if a, ok := r.PerApp[1]; ok && a.Done {
		m.roverPerceived.AddDuration(a.Perceived)
		m.roverActual.AddDuration(a.Actual)
	}
	if a, ok := r.PerApp[2]; ok && a.Done {
		m.otisPerceived.AddDuration(a.Perceived)
		m.otisActual.AddDuration(a.Actual)
	}
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
	// otisApp and armors aggregate each error model's cells.
	otisApp := make(map[inject.Model]*multiAgg)
	armors := make(map[inject.Model]*multiAgg)
	for _, model := range multiAppModels {
		oa := &multiAgg{}
		for _, r := range cres.Cell("otis/" + model.String()).Results {
			oa.addMulti(r)
		}
		otisApp[model] = oa

		ar := &multiAgg{}
		for _, target := range armorTargets {
			for _, r := range cres.Cell("armors/" + model.String() + "/" + target.String()).Results {
				ar.addMulti(r)
			}
		}
		armors[model] = ar
	}

	// Table 11: mean performance summary across all models.
	var otisAll, armorAll multiAgg
	for _, model := range multiAppModels {
		mergeMulti(&otisAll, otisApp[model])
		mergeMulti(&armorAll, armors[model])
	}
	t11 := &Table{
		ID:    "table11",
		Title: "Performance under error injection with two applications (six nodes)",
		Header: []string{"TARGET", "ROVER PERCEIVED (s)", "ROVER ACTUAL (s)",
			"OTIS PERCEIVED (s)", "OTIS ACTUAL (s)", "RECOVERY (s)"},
		Rows: [][]Cell{
			{str("Baseline (no SIFT)"), str("-"), secCell(&baseRover), str("-"), secCell(&baseOTIS), str("-")},
			{str("OTIS app"), secCell(&otisAll.roverPerceived), secCell(&otisAll.roverActual),
				secCell(&otisAll.otisPerceived), secCell(&otisAll.otisActual), secCell(&otisAll.recovery)},
			{str("ARMORs"), secCell(&armorAll.roverPerceived), secCell(&armorAll.roverActual),
				secCell(&armorAll.otisPerceived), secCell(&armorAll.otisActual), secCell(&armorAll.recovery)},
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
	group := func(label string, src map[inject.Model]*multiAgg, models []inject.Model) {
		var g multiAgg
		for _, m := range models {
			mergeMulti(&g, src[m])
		}
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
	sigModels := []inject.Model{inject.ModelSIGINT, inject.ModelSIGSTOP}
	memModels := []inject.Model{inject.ModelRegister, inject.ModelText}
	t12.Rows = append(t12.Rows, strRow("-- SIGINT/SIGSTOP --", "", "", "", "", "", ""))
	group("OTIS app", otisApp, sigModels)
	group("ARMORs", armors, sigModels)
	t12.Rows = append(t12.Rows, strRow("-- register/text --", "", "", "", "", "", ""))
	group("OTIS app", otisApp, memModels)
	group("ARMORs", armors, memModels)
	t12.Notes = append(t12.Notes, "paper: all but 2 SIGINT/SIGSTOP and all but 14 register/text errors recovered")
	return reesift.NewResult(t11, t12), nil
}

func mergeMulti(dst, src *multiAgg) {
	dst.injectedRuns += src.injectedRuns
	dst.failures += src.failures
	dst.sucRec += src.sucRec
	dst.segFault += src.segFault
	dst.illegal += src.illegal
	dst.hang += src.hang
	dst.assertion += src.assertion
	dst.sysFailures += src.sysFailures
	dst.correlated += src.correlated
	dst.perceived.Merge(&src.perceived)
	dst.actual.Merge(&src.actual)
	dst.recovery.Merge(&src.recovery)
	dst.roverPerceived.Merge(&src.roverPerceived)
	dst.roverActual.Merge(&src.roverActual)
	dst.otisPerceived.Merge(&src.otisPerceived)
	dst.otisActual.Merge(&src.otisActual)
}
