package experiments

import (
	"fmt"
	"time"

	"reesift/internal/apps/rover"
	engine "reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/internal/stats"
	"reesift/pkg/reesift"
)

// Table3 reproduces the baseline application execution time without fault
// injection: the application outside the SIFT environment versus inside
// it. The paper's finding — under two seconds of perceived overhead and no
// statistically significant actual overhead — must hold.
func Table3(sc Scale) (*reesift.Result, error) {
	runs := max(sc.Runs, 3)
	// Baseline No SIFT: the application runs bare on the cluster; the
	// perceived time equals the actual time (there is nothing to set
	// up or tear down), so one sample fills both columns.
	type standalone struct {
		actual time.Duration
		ok     bool
	}
	var noSIFT, siftPerceived, siftActual stats.Sample
	for i, s := range engine.Map(sc.Workers, runs, func(run int) standalone {
		k := sim.NewKernel(sim.DefaultConfig(engine.DeriveSeed(sc.Seed, "table3/standalone", run)))
		defer k.Shutdown()
		p := rover.DefaultParams()
		app := rover.Spec(1, []string{"node-a1", "node-a2"}, p)
		measure := sift.RunStandalone(k, app, 1*time.Second)
		k.Run(10 * time.Minute)
		var s standalone
		s.actual, s.ok = measure()
		return s
	}) {
		if !s.ok {
			return nil, fmt.Errorf("table3: standalone run %d did not finish", i)
		}
		noSIFT.AddDuration(s.actual)
	}
	// Baseline SIFT: same application submitted through the SCC,
	// driven as a fault-free public campaign.
	cres, err := runCampaign(sc, "table3", reesift.CampaignCell{
		Name:      "sift",
		Runs:      runs,
		Injection: roverInjection(inject.ModelNone, inject.TargetNone),
	})
	if err != nil {
		return nil, err
	}
	for i, res := range cres.Cells[0].Results {
		if !res.Done {
			return nil, fmt.Errorf("table3: SIFT baseline run %d did not finish", i)
		}
		siftPerceived.AddDuration(res.Perceived)
		siftActual.AddDuration(res.Actual)
	}
	t := &Table{
		ID:     "table3",
		Title:  "Baseline application execution time without fault injection (s)",
		Header: []string{"CONFIGURATION", "PERCEIVED", "ACTUAL"},
		Rows: [][]Cell{
			{str("Baseline No SIFT"), secCell(&noSIFT), secCell(&noSIFT)},
			{str("Baseline SIFT"), secCell(&siftPerceived), secCell(&siftActual)},
		},
		Notes: []string{
			fmt.Sprintf("SIFT adds %.2f s to perceived time (paper: ~2.3 s) and %.2f s to actual time (paper: not significant)",
				siftPerceived.Mean()-noSIFT.Mean(),
				siftActual.Mean()-noSIFT.Mean()),
		},
	}
	return reesift.NewResult(t), nil
}
