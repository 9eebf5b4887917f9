package reesift_test

import (
	"fmt"
	"time"

	"reesift/pkg/reesift"
)

// Boot a four-node REE cluster, install the SIFT environment (daemons,
// FTM, Heartbeat ARMOR), submit the Mars Rover texture analysis program
// through the SCC, and report its timeline. The simulation is
// deterministic: same seed, same run.
func ExampleNewCluster() {
	// The builder installs daemons on every node, the FTM through one
	// daemon, and the Heartbeat ARMOR on a second node (Table 1 step 1).
	c, err := reesift.NewCluster(
		reesift.WithNodes(4),
		reesift.WithSeed(42),
	)
	if err != nil {
		fmt.Println("cluster setup failed:", err)
		return
	}
	defer c.Close()

	// Step 2: submit the texture analysis program on two nodes.
	app := reesift.RoverApp(1, "node-a1", "node-a2")
	handle, err := c.Submit(app, 5*time.Second)
	if err != nil {
		fmt.Println("submission refused:", err)
		return
	}

	if !c.RunUntilDone(10 * time.Minute) {
		fmt.Println("application did not complete")
		return
	}
	perceived, _ := handle.PerceivedTime()
	started, _ := c.Log().First(reesift.LogAppStarted)
	ended, _ := c.Log().Last(reesift.LogAppRankExit)

	fmt.Println("REE SIFT quickstart: Mars Rover texture analysis on a 4-node cluster")
	fmt.Printf("  submitted at        %8.2f s (virtual)\n", handle.SubmittedAt.Seconds())
	fmt.Printf("  app started at      %8.2f s\n", started.At.Seconds())
	fmt.Printf("  app ended at        %8.2f s\n", ended.At.Seconds())
	fmt.Printf("  SCC notified at     %8.2f s\n", handle.DoneAt.Seconds())
	fmt.Printf("  actual exec time    %8.2f s\n", (ended.At - started.At).Seconds())
	fmt.Printf("  perceived exec time %8.2f s\n", perceived.Seconds())
	fmt.Printf("  restarts            %8d\n", handle.Restarts)

	// Verify the segmentation output against the reference pipeline.
	verdict, err := reesift.RoverVerdict(c.SharedFS(), app.ID)
	if err != nil {
		fmt.Println("reference pipeline failed:", err)
		return
	}
	fmt.Printf("  output verdict      %8s\n", verdict)
	fmt.Printf("  SIFT log entries    %8d\n", c.Log().Len())
	// Output:
	// REE SIFT quickstart: Mars Rover texture analysis on a 4-node cluster
	//   submitted at            5.00 s (virtual)
	//   app started at          5.90 s
	//   app ended at           76.72 s
	//   SCC notified at        76.72 s
	//   actual exec time       70.81 s
	//   perceived exec time    71.72 s
	//   restarts                   0
	//   output verdict       correct
	//   SIFT log entries          22
}

// Run the Section 8 configuration: the Mars Rover texture analysis
// program and the OTIS thermal imaging spectrometer executing
// simultaneously on a six-node cluster, with a mid-run Execution ARMOR
// hang. Recovering one application's SIFT process does not disturb the
// other application.
func ExampleCluster_SuspendExecArmor() {
	c, err := reesift.NewCluster(
		reesift.WithNodes(6),
		reesift.WithSeed(7),
	)
	if err != nil {
		fmt.Println("cluster setup failed:", err)
		return
	}
	defer c.Close()

	roverApp := reesift.RoverApp(1, "n1", "n2")
	otisApp := reesift.OTISApp(2, "n3", "n4")
	hr, err := c.Submit(roverApp, 5*time.Second)
	if err != nil {
		fmt.Println("submission refused:", err)
		return
	}
	ho, err := c.Submit(otisApp, 5*time.Second)
	if err != nil {
		fmt.Println("submission refused:", err)
		return
	}

	// Hang OTIS's rank-0 Execution ARMOR mid-run: the daemon's
	// are-you-alive polling detects it, the FTM reinstalls it from its
	// microcheckpoint, and neither application is restarted.
	suspended := false
	c.At(60*time.Second, func() {
		suspended = c.SuspendExecArmor(otisApp.ID, 0)
	})

	c.RunUntilDone(20 * time.Minute)

	fmt.Println("two applications on six nodes; OTIS rank-0 Execution ARMOR hung:", suspended)
	report := func(name string, h *reesift.AppHandle) {
		if !h.Done {
			fmt.Printf("  %-6s DID NOT COMPLETE\n", name)
			return
		}
		p, _ := h.PerceivedTime()
		fmt.Printf("  %-6s perceived %7.2f s, restarts %d\n", name, p.Seconds(), h.Restarts)
	}
	report("rover", hr)
	report("otis", ho)

	fmt.Println("SIFT recovery events:")
	for _, r := range c.Log().Recoveries {
		fmt.Printf("  %-12s detected %7.2f s, reinstalled %7.2f s (recovery %.2f s)\n",
			r.ID, r.DetectedAt.Seconds(), r.RestoredAt.Seconds(),
			(r.RestoredAt - r.DetectedAt).Seconds())
	}
	// Output:
	// two applications on six nodes; OTIS rank-0 Execution ARMOR hung: true
	//   rover  perceived   71.72 s, restarts 0
	//   otis   perceived  185.27 s, restarts 0
	// SIFT recovery events:
	//   armor-1200   detected   70.00 s, reinstalled   70.45 s (recovery 0.45 s)
}

// Reproduce the Section 5.3 trade-off study on the Sweep API: sweeping
// the heartbeat period changes how quickly FTM failures are detected.
// Perceived application execution time grows with the period while
// actual execution time stays flat.
//
// The sweep derives every run's seed from the campaign identity
// ("heartbeat-tuning/period=5s", run), so cells never collide on a seed
// range and the whole table is reproducible from the base seed.
func ExampleSweep() {
	periods := []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second, 30 * time.Second}
	points := make([]reesift.SweepPoint, len(periods))
	for i, period := range periods {
		points[i] = reesift.ClusterPoint(period.String(), reesift.WithHeartbeatPeriod(period))
	}
	cres, err := (&reesift.Sweep{
		Name:        "heartbeat-tuning",
		Seed:        1,
		RunsPerCell: 2,
		Base: reesift.Injection{
			Model:  reesift.ModelSIGINT,
			Target: reesift.TargetFTM,
			Apps:   []*reesift.AppSpec{reesift.RoverApp(1, "node-a1", "node-a2")},
		},
	}).Axis("period", points...).Run()
	if err != nil {
		fmt.Println("sweep failed:", err)
		return
	}

	fmt.Println("FTM SIGINT injections under varying heartbeat periods (Section 5.3)")
	fmt.Printf("%-10s %-16s %-16s %s\n", "PERIOD", "PERCEIVED (s)", "ACTUAL (s)", "FTM RECOVERY (s)")
	for i, period := range periods {
		var perceived, actual, recovery reesift.Sample
		for _, res := range cres.Cells[i].Results {
			if !res.Done {
				continue
			}
			perceived.AddDuration(res.Perceived)
			actual.AddDuration(res.Actual)
			if res.Recovered {
				recovery.AddDuration(res.RecoveryTime)
			}
		}
		fmt.Printf("%-10s %-16s %-16s %s\n", period, perceived.MeanCI(), actual.MeanCI(), recovery.MeanCI())
	}
	// Output:
	// FTM SIGINT injections under varying heartbeat periods (Section 5.3)
	// PERIOD     PERCEIVED (s)    ACTUAL (s)       FTM RECOVERY (s)
	// 5s         71.72 ± 0.00     70.81 ± 0.00     0.45 ± 0.00
	// 10s        71.72 ± 0.00     70.81 ± 0.00     0.45 ± 0.00
	// 20s        87.27 ± 127.07   70.81 ± 0.00     0.45 ± 0.00
	// 30s        94.50 ± 295.10   70.81 ± 0.00     0.45 ± 0.00
}

// Author a SIGINT/SIGSTOP injection campaign against all four targets
// (application, FTM, Execution ARMOR, Heartbeat ARMOR) on the Campaign
// API and print a Table 4-shaped summary: the programmatic equivalent of
// `reesift -exp table4` with a custom campaign size.
//
// The campaign derives every run's seed from its cell identity
// ("faultcampaign/SIGINT/FTM", run). Its Observer sees each cell's
// results in run order at any worker count.
func ExampleCampaign() {
	models := []reesift.Model{reesift.ModelSIGINT, reesift.ModelSIGSTOP}
	targets := []reesift.Target{
		reesift.TargetApp, reesift.TargetFTM,
		reesift.TargetExecArmor, reesift.TargetHeartbeat,
	}

	campaign := reesift.Campaign{
		Name: "faultcampaign",
		Seed: 1,
	}
	for _, model := range models {
		for _, target := range targets {
			campaign.Cells = append(campaign.Cells, reesift.CampaignCell{
				Name: model.String() + "/" + target.String(),
				Runs: 3,
				Injection: reesift.Injection{
					Model:  model,
					Target: target,
					Apps:   []*reesift.AppSpec{reesift.RoverApp(1, "node-a1", "node-a2")},
				},
			})
		}
	}
	streamed, inOrder := 0, true
	nextRun := map[string]int{}
	campaign.Observer = &reesift.Observer{
		OnResult: func(ref reesift.RunRef, _ reesift.InjectionResult) {
			streamed++
			inOrder = inOrder && ref.Run == nextRun[ref.Cell]
			nextRun[ref.Cell]++
		},
	}
	cres, err := campaign.Run()
	if err != nil {
		fmt.Println("campaign setup failed:", err)
		return
	}

	fmt.Printf("%-9s %-16s %5s %5s %5s  %-15s %-15s %s\n",
		"MODEL", "TARGET", "INJ", "REC", "CORR", "PERCEIVED (s)", "ACTUAL (s)", "RECOVERY (s)")
	totalRuns, totalSys := 0, 0
	for _, model := range models {
		for _, target := range targets {
			cell := cres.Cell(model.String() + "/" + target.String())
			var perceived, actual, recovery reesift.Sample
			injected, recovered, correlated := 0, 0, 0
			for _, res := range cell.Results {
				if res.Injected == 0 {
					continue
				}
				injected++
				totalRuns++
				if res.Done && !res.SystemFailure {
					recovered++
					perceived.AddDuration(res.Perceived)
					actual.AddDuration(res.Actual)
				} else {
					totalSys++
				}
				if res.Correlated {
					correlated++
				}
				if res.Recovered {
					recovery.AddDuration(res.RecoveryTime)
				}
			}
			fmt.Printf("%-9s %-16s %5d %5d %5d  %-15s %-15s %s\n",
				model, target, injected, recovered, correlated,
				perceived.MeanCI(), actual.MeanCI(), recovery.MeanCI())
		}
	}
	fmt.Printf("%d injected runs, %d system failures (campaign tally: %d runs, %d insertions)\n",
		totalRuns, totalSys, cres.Tally.Runs, cres.Tally.Injections)
	fmt.Printf("95%% no-failure bound on unrecoverable probability: p < %.5f\n",
		reesift.NoFailureBound(totalRuns))
	fmt.Printf("observer streamed %d results, each cell in run order: %v\n", streamed, inOrder)
	// Output:
	// MODEL     TARGET             INJ   REC  CORR  PERCEIVED (s)   ACTUAL (s)      RECOVERY (s)
	// SIGINT    application          3     3     0  78.46 ± 10.71   77.55 ± 10.71   0.40 ± 0.00
	// SIGINT    FTM                  3     3     0  76.90 ± 23.28   70.81 ± 0.00    0.45 ± 0.00
	// SIGINT    Execution ARMOR      3     3     0  71.62 ± 0.79    70.87 ± 0.23    0.45 ± 0.00
	// SIGINT    Heartbeat ARMOR      3     3     0  71.57 ± 0.65    70.81 ± 0.00    0.45 ± 0.00
	// SIGSTOP   application          3     3     0  112.07 ± 0.01   111.61 ± 0.01   0.40 ± 0.00
	// SIGSTOP   FTM                  3     3     0  71.42 ± 0.65    70.81 ± 0.00    0.45 ± 0.00
	// SIGSTOP   Execution ARMOR      1     1     0  71.27 ± 0.00    70.81 ± 0.00    0.45 ± 0.00
	// SIGSTOP   Heartbeat ARMOR      2     2     0  71.27 ± 0.00    70.81 ± 0.00    0.45 ± 0.00
	// 21 injected runs, 0 system failures (campaign tally: 24 runs, 21 insertions)
	// 95% no-failure bound on unrecoverable probability: p < 0.00244
	// observer streamed 24 results, each cell in run order: true
}

// Run a long-horizon continuous-fault trial on the Arrival API. Instead
// of one fault per run, the trial simulates hours of operation under a
// Poisson arrival process of SIGINT faults against the Execution ARMOR,
// with a relay service beating through the progress-indicator interface
// as the availability probe. The Observer's OnArrival hook replays every
// fault arrival once the trial is done.
//
// This is the programmatic equivalent of one `reesift -exp chaos` cell.
func ExampleArrival() {
	campaign := reesift.Campaign{
		Name: "chaos-example",
		Seed: 1,
		Cells: []reesift.CampaignCell{{
			Name: "poisson/exec",
			Runs: 1,
			Injection: reesift.Injection{
				Model:  reesift.ModelSIGINT,
				Target: reesift.TargetExecArmor,
				Arrival: &reesift.Arrival{
					Process:     reesift.ArrivalPoisson,
					Horizon:     2 * time.Hour,
					MeanBetween: 4 * time.Minute,
				},
			},
		}},
	}
	observed := 0
	campaign.Observer = &reesift.Observer{
		OnArrival: func(reesift.RunRef, reesift.ArrivalEvent) {
			observed++
		},
	}
	cres, err := campaign.Run()
	if err != nil {
		fmt.Println("campaign setup failed:", err)
		return
	}

	fmt.Printf("%-6s %-9s %-6s %-13s %-6s %-13s %-13s %s\n",
		"TRIAL", "ARRIVALS", "DOWNS", "AVAILABILITY", "UNREC", "MTTR p50 (s)", "MTTR p95 (s)", "MTTR max (s)")
	for i, res := range cres.Cell("poisson/exec").Results {
		st := res.Chaos
		if st == nil {
			fmt.Printf("%-6d (no chaos stats)\n", i)
			continue
		}
		fmt.Printf("%-6d %-9d %-6d %-13.6f %-6v %-13.2f %-13.2f %.2f\n",
			i, st.Arrivals, st.Downs, st.Availability, st.Unrecoverable,
			st.MTTRp50.Seconds(), st.MTTRp95.Seconds(), st.MTTRMax.Seconds())
	}
	fmt.Printf("observer replayed %d arrival events (campaign tally: %d runs, %d insertions)\n",
		observed, cres.Tally.Runs, cres.Tally.Injections)
	// Output:
	// TRIAL  ARRIVALS  DOWNS  AVAILABILITY  UNREC  MTTR p50 (s)  MTTR p95 (s)  MTTR max (s)
	// 0      31        4      0.999584      false  0.35          1.76          2.00
	// observer replayed 31 arrival events (campaign tally: 1 runs, 31 insertions)
}
