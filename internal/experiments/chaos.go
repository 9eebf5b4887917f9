package experiments

import (
	"fmt"
	"time"

	"reesift/internal/san"
	"reesift/internal/sift"
	"reesift/internal/stats"
	"reesift/pkg/reesift"
)

// The chaos scenario's fixed knobs. Arrival rates are properties of the
// studied fault environment, not of the campaign size, so they do not
// scale with Scale.
const (
	// chaosServicePeriod is the relay service's beat period, and the
	// SAN model's interface period for the cross-check.
	chaosServicePeriod = 5 * time.Second
	// chaosCrossMTTFLow/High are the Poisson Exec-ARMOR cells' mean
	// inter-arrival times — the SIFT MTTF axis of the cross-check.
	chaosCrossMTTFLow  = 60 * time.Second
	chaosCrossMTTFHigh = 240 * time.Second
	// chaosTolerance bounds the measured/predicted unavailability ratio
	// of the cross-check cells. The SAN model and the simulator agree on
	// the mechanism (the application blocks while its Execution ARMOR is
	// being reinstalled) but differ in the details — the SAN draws
	// recovery times from an exponential while the simulator's
	// reinstallation is deterministic, and the beat-gap measurement
	// drops blocks shorter than the 50 ms grace — so the ratio lands
	// near 0.5, not 1. A factor-4 band catches order-of-magnitude
	// breakage while tolerating those modelling differences.
	chaosTolerance = 4.0
	// chaosSANHorizon is the simulated seconds per SAN point.
	chaosSANHorizon = 1e6
)

// chaosCell is one cell of the chaos campaign: an arrival process, the
// cell's trial horizon, and (for the cross-check cells) the SIFT MTTF
// the SAN prediction is compared against.
type chaosCell struct {
	name      string
	inj       reesift.Injection
	crossMTTF time.Duration
}

// chaosCells builds the campaign: Poisson Exec-ARMOR arrivals at two
// rates (the cross-check cells, one full horizon each), node-crash
// arrivals at two restart delays (the recovery-tuning axis), burst
// trains against the FTM, rolling outage waves faster than the restart
// window, and crash-during-recovery double faults. The non-Poisson
// cells run a third of the horizon: their arrival dynamics show up in
// hours, and the full horizon belongs to the low-rate availability
// estimates.
func chaosCells(horizon time.Duration) []chaosCell {
	short := horizon / 3
	sharedCkpt := []reesift.Option{reesift.WithSharedCheckpoints()}
	return []chaosCell{
		{
			name:      fmt.Sprintf("poisson/exec-mttf=%ds", int(chaosCrossMTTFLow.Seconds())),
			crossMTTF: chaosCrossMTTFLow,
			inj: reesift.Injection{
				Model:  reesift.ModelSIGINT,
				Target: reesift.TargetExecArmor,
				Arrival: &reesift.Arrival{
					Process:       reesift.ArrivalPoisson,
					Horizon:       horizon,
					MeanBetween:   chaosCrossMTTFLow,
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
		{
			name:      fmt.Sprintf("poisson/exec-mttf=%ds", int(chaosCrossMTTFHigh.Seconds())),
			crossMTTF: chaosCrossMTTFHigh,
			inj: reesift.Injection{
				Model:  reesift.ModelSIGINT,
				Target: reesift.TargetExecArmor,
				Arrival: &reesift.Arrival{
					Process:       reesift.ArrivalPoisson,
					Horizon:       horizon,
					MeanBetween:   chaosCrossMTTFHigh,
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
		{
			name: "poisson/node-restart=10s",
			inj: reesift.Injection{
				Model:            reesift.ModelNodeCrash,
				Target:           reesift.TargetApp,
				NodeRestartAfter: 10 * time.Second,
				Cluster:          sharedCkpt,
				Arrival: &reesift.Arrival{
					Process:       reesift.ArrivalPoisson,
					Horizon:       short,
					MeanBetween:   10 * time.Minute,
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
		{
			name: "poisson/node-restart=60s",
			inj: reesift.Injection{
				Model:            reesift.ModelNodeCrash,
				Target:           reesift.TargetApp,
				NodeRestartAfter: 60 * time.Second,
				Cluster:          sharedCkpt,
				Arrival: &reesift.Arrival{
					Process:       reesift.ArrivalPoisson,
					Horizon:       short,
					MeanBetween:   10 * time.Minute,
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
		{
			name: "burst/ftm",
			inj: reesift.Injection{
				Model:  reesift.ModelSIGINT,
				Target: reesift.TargetFTM,
				Arrival: &reesift.Arrival{
					Process:       reesift.ArrivalBursts,
					Horizon:       short,
					MeanBetween:   30 * time.Minute,
					BurstSize:     3,
					BurstSpacing:  2 * time.Second,
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
		{
			name: "wave/rolling",
			inj: reesift.Injection{
				Model:   reesift.ModelNodeCrash,
				Cluster: sharedCkpt,
				Arrival: &reesift.Arrival{
					Process:       reesift.ArrivalRollingOutage,
					Horizon:       short,
					MeanBetween:   time.Hour,
					WaveSpacing:   10 * time.Second, // < the 30 s restart window: outages overlap
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
		{
			name: "double/ftm-hb",
			inj: reesift.Injection{
				Model:  reesift.ModelSIGINT,
				Target: reesift.TargetFTM,
				Arrival: &reesift.Arrival{
					Process:     reesift.ArrivalDoubleFault,
					Horizon:     short,
					MeanBetween: 20 * time.Minute,
					Second: &reesift.CompoundStage{
						Model:  reesift.ModelSIGSTOP,
						Target: reesift.TargetHeartbeat,
					},
					ServicePeriod: chaosServicePeriod,
				},
			},
		},
	}
}

// Chaos is the continuous-chaos scenario: long-horizon campaigns of
// background fault arrival processes against the relay service,
// reporting per-cell availability, the pooled MTTR distribution
// (p50/p95/max), and the time to the first unrecoverable state — with
// the low-rate Poisson cells cross-checked against the Figure 9 SAN
// model's AppUnavailability prediction (solved by san.Figure9Study, the
// same study the fig9 scenario runs).
func Chaos(sc Scale) (*reesift.Result, error) {
	trials := max(sc.ChaosTrials, 2)
	horizon := max(sc.ChaosHorizon, 24*time.Hour) // at least one simulated day per Poisson trial
	cells := chaosCells(horizon)
	ccells := make([]reesift.CampaignCell, len(cells))
	for i, c := range cells {
		ccells[i] = reesift.CampaignCell{Name: c.name, Runs: trials, Injection: c.inj}
	}
	cres, err := runCampaign(sc, "chaos", ccells...)
	if err != nil {
		return nil, err
	}

	t := &reesift.Table{
		ID:    "chaos",
		Title: "Continuous chaos: availability and MTTR under background fault arrival processes",
		Header: []string{"CELL", "HOURS", "TRIALS", "ARRIVALS", "INJECTED", "AVAILABILITY", "AVAIL CI95",
			"DOWNS", "MTTR MEAN (s)", "MTTR CI95 (s)", "MTTR p50 (s)", "MTTR p95 (s)", "MTTR MAX (s)", "UNRECOV", "TTFU (s)"},
	}
	type pooled struct {
		unavail float64 // mean per-trial unavailability
	}
	pooledByName := make(map[string]pooled, len(cells))
	for i, cell := range cres.Cells {
		c := cells[i]
		arrivals, downs, unrecov := 0, 0, 0
		var mttr, ttfu stats.Sample
		perTrial := make([]*reesift.ChaosStats, 0, len(cell.Results))
		for _, r := range cell.Results {
			st := r.Chaos
			if st == nil {
				return nil, fmt.Errorf("chaos: cell %q run without ChaosStats", c.name)
			}
			perTrial = append(perTrial, st)
			arrivals += st.Arrivals
			downs += st.Downs
			for _, d := range st.Down {
				mttr.AddDuration(d)
			}
			if st.Unrecoverable {
				unrecov++
				ttfu.AddDuration(st.TimeToUnrecoverable)
			}
		}
		ci := reesift.SummarizeChaos(perTrial)
		pooledByName[c.name] = pooled{unavail: 1 - ci.MeanAvailability}
		ttfuCell := reesift.Str("-")
		if unrecov > 0 {
			ttfuCell = reesift.Float(ttfu.Mean(), 0)
		}
		t.Rows = append(t.Rows, []reesift.Cell{
			reesift.Str(c.name),
			reesift.Float(c.inj.Arrival.Horizon.Hours(), 0),
			reesift.Int(len(cell.Results)),
			reesift.Int(arrivals),
			reesift.Int(int(cell.Tally.Injections)),
			reesift.Float(ci.MeanAvailability, 6),
			reesift.Float(ci.AvailabilityCI95, 6),
			reesift.Int(downs),
			reesift.Float(ci.MeanMTTR.Seconds(), 2),
			reesift.Float(ci.MTTRCI95.Seconds(), 2),
			reesift.Float(mttr.Percentile(50), 2),
			reesift.Float(mttr.Percentile(95), 2),
			reesift.Float(mttr.Max(), 2),
			reesift.Int(unrecov),
			ttfuCell,
		})
	}
	t.Notes = append(t.Notes,
		"background arrival processes against the chaos relay service (one beat per 5 s through the progress-indicator interface); a down interval is any beat gap in excess of the period plus 50 ms grace",
		"AVAIL CI95 is the 95% Student-t half-width of availability across the cell's trials; MTTR MEAN/CI95 and the percentiles pool the down intervals of all trials; TTFU is the mean start of the terminal outage among unrecoverable trials",
		fmt.Sprintf("%d trials per cell; Poisson Exec-ARMOR cells run %.0f h each, the other processes %.0f h", trials, horizon.Hours(), (horizon/3).Hours()),
	)

	// The SAN cross-check: the low-rate Poisson cells measure the same
	// quantity the Figure 9 network predicts as AppUnavailability — the
	// fraction of time the application is blocked on (or failed by) its
	// SIFT process. The prediction is solved by san.Figure9Study with the
	// simulator's own characteristic times: the ARMOR reinstallation
	// delay as the SIFT recovery time and the relay beat period as the
	// interface period. The blocked service never reaches its hang
	// deadline (recovery is ~0.45 s against a 20 s watchdog), so the
	// timeout path is disabled with an effectively infinite AppTimeout.
	params := san.DefaultFigure9Params()
	params.SIFTRecovery = sift.DefaultEnvConfig().InstallDelay
	params.InterfacePeriod = chaosServicePeriod
	params.InterfaceService = time.Millisecond
	params.AppTimeout = 1e6 * time.Second
	var mttfs []time.Duration
	for _, c := range cells {
		if c.crossMTTF > 0 {
			mttfs = append(mttfs, c.crossMTTF)
		}
	}
	pts, err := san.Figure9Study(params, mttfs, chaosSANHorizon, sc.Seed)
	if err != nil {
		return reesift.NewResult(t), fmt.Errorf("chaos: SAN prediction: %w", err)
	}
	xt := &reesift.Table{
		ID:     "chaos-crosscheck",
		Title:  "Measured steady-state unavailability vs the Figure 9 SAN prediction",
		Header: []string{"CELL", "SIFT MTTF (s)", "MEASURED UNAVAIL", "SAN PREDICTED", "RATIO"},
	}
	var checkErr error
	point := 0
	for _, c := range cells {
		if c.crossMTTF == 0 {
			continue
		}
		measured := pooledByName[c.name].unavail
		predicted := pts[point].AppUnavailability
		point++
		ratio := 0.0
		if predicted > 0 {
			ratio = measured / predicted
		}
		xt.Rows = append(xt.Rows, []reesift.Cell{
			reesift.Str(c.name),
			reesift.Float(c.crossMTTF.Seconds(), 0),
			reesift.Float(measured, 8),
			reesift.Float(predicted, 8),
			reesift.Float(ratio, 2),
		})
		// Embedded acceptance check: agreement within the documented
		// tolerance band.
		if checkErr == nil {
			switch {
			case measured <= 0:
				checkErr = fmt.Errorf("chaos: cell %q measured zero unavailability (no blocks observed)", c.name)
			case predicted <= 0:
				checkErr = fmt.Errorf("chaos: SAN predicted zero unavailability at MTTF %v", c.crossMTTF)
			case ratio > chaosTolerance || ratio < 1/chaosTolerance:
				checkErr = fmt.Errorf("chaos: cell %q measured/predicted unavailability ratio %.2f outside [%.2f, %.2f]",
					c.name, ratio, 1/chaosTolerance, chaosTolerance)
			}
		}
	}
	xt.Notes = append(xt.Notes,
		fmt.Sprintf("SAN solved by san.Figure9Study with SIFT recovery %v, interface period %v, timeout path disabled; %.0e simulated seconds per point", params.SIFTRecovery, params.InterfacePeriod, chaosSANHorizon),
		fmt.Sprintf("acceptance band: ratio within [%.2f, %.2f] — the SAN's exponential recovery and the 50 ms measurement grace put the expected ratio near 0.5, not 1", 1/chaosTolerance, chaosTolerance),
	)
	res := reesift.NewResult(t, xt)
	if checkErr != nil {
		return res, checkErr
	}

	// Remaining acceptance checks: every cell's process must actually
	// have fired.
	for _, cell := range cres.Cells {
		if cell.Tally.Injections == 0 {
			return res, fmt.Errorf("chaos: cell %q never injected", cell.Name)
		}
	}
	return res, nil
}
