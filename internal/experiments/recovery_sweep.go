package experiments

import (
	"fmt"
	"time"

	"reesift/pkg/reesift"
)

// The recovery-sweep axes: how long a crashed node stays down before
// its hardware restarts, crossed with the environment's heartbeat
// periods (both the FTM-to-daemon and Heartbeat-ARMOR-to-FTM periods,
// the paper's Table 5 knob).
var (
	recoverySweepRestarts = []time.Duration{10 * time.Second, 30 * time.Second, 60 * time.Second}
	recoverySweepPeriods  = []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second}
)

// RecoverySweep is the ROADMAP's recovery-time tuning experiment — a
// Table 5 analogue for node faults — and the proof that the public
// Campaign/Sweep API carries real experiments: it is written entirely
// against pkg/reesift, with no internal plumbing beyond its registry
// entry. A whole-node crash is injected under the application's rank-1
// node (the SIFT infrastructure is isolated on the non-application
// nodes, checkpoints are centralized per Section 3.4), sweeping
// NodeRestartAfter against the heartbeat period and reporting the mean
// application recovery time — failure detection to restarted code
// running — per cell. The sweep quantifies the detection-latency
// trade-off the paper discusses in Section 5.3: shorter heartbeat
// periods buy faster detection, while the node outage length bounds how
// soon the rank's Execution ARMOR can be reinstalled on its home node.
func RecoverySweep(sc Scale) (*reesift.Result, error) {
	runs := max(sc.Table5Runs, 3)
	restartPts := make([]reesift.SweepPoint, len(recoverySweepRestarts))
	for i, d := range recoverySweepRestarts {
		d := d
		restartPts[i] = reesift.Point(fmt.Sprintf("%ds", int(d.Seconds())),
			func(inj *reesift.Injection) { inj.NodeRestartAfter = d })
	}
	periodPts := make([]reesift.SweepPoint, len(recoverySweepPeriods))
	for i, d := range recoverySweepPeriods {
		periodPts[i] = reesift.ClusterPoint(fmt.Sprintf("%ds", int(d.Seconds())),
			reesift.WithHeartbeatPeriod(d))
	}
	cres, err := (&reesift.Sweep{
		Name:        "recovery-sweep",
		Seed:        sc.Seed,
		Workers:     sc.Workers,
		RunsPerCell: runs,
		Census:      sc.Census,
		Trace:       sc.Trace,
		Replay:      sc.Replay,
		Base: reesift.Injection{
			Model:  reesift.ModelNodeCrash,
			Target: reesift.TargetApp,
			Rank:   1,
			Apps:   []*reesift.AppSpec{reesift.RoverApp(1, "node-a1", "node-a2")},
			Cluster: []reesift.Option{
				reesift.WithSharedCheckpoints(),
				reesift.WithFTMNode("node-b1"),
				reesift.WithHeartbeatNode("node-b2"),
			},
		},
	}).
		Axis("restart", restartPts...).
		Axis("hb", periodPts...).
		Run()
	if err != nil {
		return nil, err
	}

	t := &reesift.Table{
		ID:    "recovery-sweep",
		Title: "Recovery-time tuning: mean application recovery after a node crash, per restart delay and heartbeat period",
		Header: []string{"RESTART AFTER (s)", "HB PERIOD (s)", "INJECTED", "RECOVERED",
			"MEAN RECOVERY (s)", "PERCEIVED (s)", "SYSTEM FAILURES"},
	}
	recoveries := 0
	for _, cell := range cres.Cells {
		var restart, period int
		if _, err := fmt.Sscanf(cell.Name, "restart=%ds/hb=%ds", &restart, &period); err != nil {
			return nil, fmt.Errorf("recovery-sweep: cell %q: %v", cell.Name, err)
		}
		var rec, perceived reesift.Sample
		injected, recovered := 0, 0
		for _, r := range cell.Results {
			if r.Injected > 0 {
				injected++
			}
			if r.Recovered && r.RecoveryTime > 0 {
				recovered++
				rec.AddDuration(r.RecoveryTime)
			}
			if r.Done {
				perceived.AddDuration(r.Perceived)
			}
		}
		recoveries += recovered
		t.Rows = append(t.Rows, []reesift.Cell{
			reesift.Float(float64(restart), 0),
			reesift.Float(float64(period), 0),
			reesift.Int(injected),
			reesift.Int(recovered),
			reesift.SampleCell(&rec),
			reesift.SampleCell(&perceived),
			reesift.Int(int(cell.Tally.SystemFailures)),
		})
	}
	t.Notes = append(t.Notes,
		"node crash under the application's rank-1 node; SIFT processes isolated on the non-application nodes; centralized checkpoints (Section 3.4)",
		"MEAN RECOVERY spans failure detection to restarted application code running; the detection latency itself lands in PERCEIVED, which grows with the heartbeat period and the node outage length (the Section 5.3 trade-off, replayed for node faults)",
		fmt.Sprintf("%d runs per cell, %d recoveries observed", runs, recoveries),
	)
	res := reesift.NewResult(t)

	// Embedded acceptance checks: every cell must have injected, and the
	// sweep as a whole must observe recoveries — a sweep of
	// never-recovering crashes measures nothing.
	for _, cell := range cres.Cells {
		if cell.Tally.Injections == 0 {
			return res, fmt.Errorf("recovery-sweep: cell %q never injected", cell.Name)
		}
	}
	if recoveries == 0 {
		return res, fmt.Errorf("recovery-sweep: no application recoveries observed across the sweep")
	}
	return res, nil
}
