package reesift

import (
	"strings"
	"testing"
	"time"

	"reesift/internal/sift"
)

func TestBuildConfigDefaults(t *testing.T) {
	cfg, seed, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 1 {
		t.Fatalf("default seed = %d, want 1", seed)
	}
	if len(cfg.Nodes) != 4 || cfg.Nodes[0] != "node-a1" {
		t.Fatalf("default nodes = %v", cfg.Nodes)
	}
	if cfg.FTMNode == cfg.HeartbeatNode {
		t.Fatal("FTM and Heartbeat ARMOR on the same node by default")
	}
	if !cfg.FixRegistrationRace {
		t.Fatal("registration race must be fixed by default")
	}
}

func TestOptionValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"one node", []Option{WithNodes(1)}, "at least 2 nodes"},
		{"few names", []Option{WithNodeNames("solo")}, "at least 2 nodes"},
		{"dup names", []Option{WithNodeNames("a", "a")}, "duplicate hostname"},
		{"empty name", []Option{WithNodeNames("a", "")}, "empty hostname"},
		{"too many nodes", []Option{WithNodes(sift.MaxNodes + 1)}, "at most 1024 nodes"},
		{"too many names", []Option{WithNodeNames(make([]string, sift.MaxNodes+1)...)}, "at most 1024 nodes"},
		{"zero heartbeat", []Option{WithHeartbeatPeriod(0)}, "must be positive"},
		{"negative ftm heartbeat", []Option{WithFTMHeartbeatPeriod(-time.Second)}, "must be positive"},
		{"zero armor heartbeat", []Option{WithHeartbeatArmorPeriod(0)}, "must be positive"},
		{"zero aya", []Option{WithDaemonAYAPeriod(0)}, "must be positive"},
		{"zero install", []Option{WithInstallDelay(0)}, "must be positive"},
		{"zero app start", []Option{WithAppStartDelay(0)}, "must be positive"},
		{"negative scc delay", []Option{WithSCCCommandDelay(-time.Second)}, "must not be negative"},
		{"ftm off cluster", []Option{WithFTMNode("elsewhere")}, "not in the cluster"},
		{"hb off cluster", []Option{WithHeartbeatNode("elsewhere")}, "not in the cluster"},
		{"ftm equals hb", []Option{WithFTMNode("node-a1"), WithHeartbeatNode("node-a1")},
			"must be on different nodes"},
		{"nil option", []Option{nil}, "nil Option"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewCluster(tc.opts...); err == nil {
				t.Fatalf("NewCluster(%s) succeeded, want error containing %q", tc.name, tc.want)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestFTMPlacementMovesHeartbeat(t *testing.T) {
	// Placing the FTM on the default heartbeat node must relocate the
	// Heartbeat ARMOR rather than fail: only an explicit double booking
	// is a conflict.
	cfg, _, err := buildConfig([]Option{WithFTMNode("node-a2")})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FTMNode != "node-a2" {
		t.Fatalf("FTMNode = %q", cfg.FTMNode)
	}
	if cfg.HeartbeatNode == "node-a2" {
		t.Fatal("Heartbeat ARMOR not relocated off the FTM node")
	}
}

func TestHeartbeatPlacementMovesFTM(t *testing.T) {
	// The mirror of TestFTMPlacementMovesHeartbeat: placing the
	// Heartbeat ARMOR on the default FTM node relocates the FTM.
	cfg, _, err := buildConfig([]Option{WithHeartbeatNode("node-a1")})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatNode != "node-a1" {
		t.Fatalf("HeartbeatNode = %q", cfg.HeartbeatNode)
	}
	if cfg.FTMNode == "node-a1" {
		t.Fatal("FTM not relocated off the Heartbeat node")
	}
}

func TestRunUntilDoneTwice(t *testing.T) {
	// A second RunUntilDone after an earlier completed run must only
	// wait for the not-yet-done submissions, not spin to the limit.
	c, err := NewCluster(WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.RunUntilDone(10 * time.Minute) {
		t.Fatal("no-submission RunUntilDone returned false")
	}
	ha := mustSubmit(t, c, RoverApp(1), c.Now()+5*time.Second)
	if !c.RunUntilDone(c.Now() + 10*time.Minute) {
		t.Fatal("first submission did not complete")
	}
	after := c.Now()
	hb := mustSubmit(t, c, RoverApp(2), c.Now()+5*time.Second)
	if !c.RunUntilDone(c.Now() + 10*time.Minute) {
		t.Fatal("second submission did not complete")
	}
	if !ha.Done || !hb.Done {
		t.Fatalf("handles: a=%v b=%v", ha.Done, hb.Done)
	}
	// The second run must have stopped at app B's completion, well
	// before its 10-minute limit.
	if c.Now()-after > 5*time.Minute {
		t.Fatalf("second RunUntilDone spun to the limit: %v -> %v", after, c.Now())
	}
}

func TestRunUntilDoneIgnoresForeignSubmissions(t *testing.T) {
	// An application submitted through the Env() escape hatch completes
	// first; RunUntilDone must keep running until the tracked
	// submission finishes.
	c, err := NewCluster(WithSeed(12), WithNodes(6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	foreign := c.Env().Submit(RoverApp(1, "n1", "n2"), 5*time.Second)
	tracked := mustSubmit(t, c, RoverApp(2, "n3", "n4"), 40*time.Second)
	if !c.RunUntilDone(20 * time.Minute) {
		t.Fatalf("tracked submission did not complete (foreign done=%v tracked done=%v)",
			foreign.Done, tracked.Done)
	}
	if !tracked.Done {
		t.Fatal("tracked handle not done")
	}
}

func TestOptionsResolve(t *testing.T) {
	cfg, seed, err := buildConfig([]Option{
		WithNodes(6),
		WithSeed(99),
		WithHeartbeatPeriod(5 * time.Second),
		WithDaemonAYAPeriod(7 * time.Second),
		WithSharedCheckpoints(),
		WithoutSelfChecks(),
		WithRegistrationRace(),
		WithSCCCommandDelay(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if seed != 99 {
		t.Fatalf("seed = %d", seed)
	}
	if len(cfg.Nodes) != 6 || cfg.Nodes[0] != "n1" || cfg.Nodes[5] != "n6" {
		t.Fatalf("nodes = %v", cfg.Nodes)
	}
	if cfg.FTMHeartbeatPeriod != 5*time.Second || cfg.HeartbeatArmorPeriod != 5*time.Second {
		t.Fatalf("heartbeat periods = %v / %v", cfg.FTMHeartbeatPeriod, cfg.HeartbeatArmorPeriod)
	}
	if cfg.DaemonAYAPeriod != 7*time.Second {
		t.Fatalf("AYA period = %v", cfg.DaemonAYAPeriod)
	}
	if !cfg.SharedCheckpoints || !cfg.DisableSelfChecks || cfg.FixRegistrationRace {
		t.Fatalf("flags: shared=%v nochecks=%v fixrace=%v",
			cfg.SharedCheckpoints, cfg.DisableSelfChecks, cfg.FixRegistrationRace)
	}
	if cfg.SCCCommandDelay != 0 {
		t.Fatalf("SCC command delay = %v, want explicit 0", cfg.SCCCommandDelay)
	}
}

func TestClusterRunsRoverSubmission(t *testing.T) {
	c, err := NewCluster(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := mustSubmit(t, c, RoverApp(1), 5*time.Second)
	if !c.RunUntilDone(10 * time.Minute) {
		t.Fatal("application did not complete")
	}
	if p, ok := h.PerceivedTime(); !ok || p <= 0 {
		t.Fatalf("perceived time = %v, ok=%v", p, ok)
	}
	if c.Log().Count(LogSiftInitialized) != 1 {
		t.Fatal("SIFT environment never initialized")
	}
}

// TestUninstallDiscardsSharedCheckpoints checks that a finished
// application's Execution ARMORs leave no checkpoint behind on the store
// they committed it to, here the shared file system, and that the rover's
// output stays.
func TestUninstallDiscardsSharedCheckpoints(t *testing.T) {
	c, err := NewCluster(WithSeed(3), WithSharedCheckpoints())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustSubmit(t, c, RoverApp(1), 5*time.Second)
	if !c.RunUntilDone(10 * time.Minute) {
		t.Fatal("application did not complete")
	}
	c.Run(c.Now() + time.Minute) // the FTM's uninstalls reach the daemons
	if n := c.Log().Count(sift.LogArmorUninstalled); n != 2 {
		t.Fatalf("%d Execution ARMORs uninstalled, want 2", n)
	}
	for rank := range 2 {
		if ck := c.Env().ArmorOf(sift.AIDExec(1, rank)).Checkpoint(); c.SharedFS().Exists(ck.Path()) {
			t.Errorf("rank %d's checkpoint %s outlived its uninstall", rank, ck.Path())
		}
	}
	if !c.SharedFS().Exists("rover/1/output") {
		t.Fatal("rover output missing")
	}
}

func TestInjectionMultiAppDefaultsToSixNodes(t *testing.T) {
	// A multi-application run with a tuning option must still get the
	// six-node testbed, not the four-node default — and complete.
	res, err := Injection{
		Seed:   5,
		Model:  ModelNone,
		Target: TargetNone,
		Apps: []*AppSpec{
			RoverApp(1, "n1", "n2"),
			OTISApp(2, "n3", "n4"),
		},
		Cluster: []Option{WithHeartbeatPeriod(10 * time.Second)},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SystemFailure || !res.Done {
		t.Fatalf("multi-app run misclassified: done=%v sysfail=%v", res.Done, res.SystemFailure)
	}
}

func TestInjectionRejectsAppOffCluster(t *testing.T) {
	_, err := Injection{
		Seed:   1,
		Model:  ModelNone,
		Target: TargetNone,
		Apps:   []*AppSpec{RoverApp(1, "node-a1", "node-a2")},
		Cluster: []Option{
			WithNodeNames("x1", "x2"),
		},
	}.Run()
	if err == nil || !strings.Contains(err.Error(), "not in the cluster") {
		t.Fatalf("err = %v, want app-placement validation error", err)
	}
}

func TestInjectionValidatesClusterOptions(t *testing.T) {
	_, err := Injection{
		Seed:    1,
		Model:   ModelSIGINT,
		Target:  TargetFTM,
		Apps:    []*AppSpec{RoverApp(1)},
		Cluster: []Option{WithNodes(1)},
	}.Run()
	if err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Fatalf("err = %v, want node-count validation error", err)
	}
}

// TestNodeNamesRejectHostnameOverLimit: node_mgmt's Check rejects a
// hostname longer than sift.MaxHostname bytes, so a cluster with one
// would crash its FTM at every daemon registration and never finish an
// application. The façade refuses it; a hostname exactly at the limit
// runs an application to completion.
func TestNodeNamesRejectHostnameOverLimit(t *testing.T) {
	long := "node-" + strings.Repeat("x", 64)
	if _, err := NewCluster(WithNodeNames("node-a1", "node-a2", "node-b1", long)); err == nil ||
		!strings.Contains(err.Error(), "69 bytes, at most 64") {
		t.Fatalf("err = %v, want the hostname length error", err)
	}
	atLimit := long[:sift.MaxHostname]
	c, err := NewCluster(WithNodeNames("node-a1", "node-a2", "node-b1", atLimit))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustSubmit(t, c, RoverApp(1, "node-b1", atLimit), 5*time.Second)
	if !c.RunUntilDone(10 * time.Minute) {
		t.Fatal("application on a 64-byte hostname did not complete")
	}
}

// TestInjectionRejectsAppsOverRecordLimits: app_param and mgr_app_detect
// assert 1 to sift.MaxRanks ranks, and app_param's Restore refuses more
// than sift.MaxAppNodes node hints.
func TestInjectionRejectsAppsOverRecordLimits(t *testing.T) {
	hints := make([]string, sift.MaxAppNodes+1)
	for i := range hints {
		hints[i] = "node-a1"
	}
	many := RoverApp(1)
	many.Nodes = hints
	cases := []struct {
		name  string
		ranks int
		app   *AppSpec
		want  string
	}{
		{"no ranks", 0, RoverApp(1), "has 0 ranks, want 1 to 64"},
		{"too many ranks", sift.MaxRanks + 1, RoverApp(1), "has 65 ranks, want 1 to 64"},
		{"too many node hints", 2, many, "has 65 node hints, at most 64"},
	}
	for _, tc := range cases {
		tc.app.Ranks = tc.ranks
		_, err := Injection{Seed: 1, Model: ModelNone, Target: TargetNone, Apps: []*AppSpec{tc.app}}.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSubmitRejectsAppsOverRecordLimits: Submit shares Injection's check,
// so an application the FTM cannot hold is refused at submission instead
// of crashing the FTM's assertions and never finishing. Nothing is
// submitted, so RunUntilDone has nothing to wait for.
func TestSubmitRejectsAppsOverRecordLimits(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wide := RoverApp(1)
	wide.Ranks = sift.MaxRanks + 1
	if h, err := c.Submit(wide, 5*time.Second); err == nil || h != nil ||
		!strings.Contains(err.Error(), "reesift: Submit: app 1 has 65 ranks, want 1 to 64") {
		t.Fatalf("Submit(65 ranks) = %v, %v; want the rank-limit error and no handle", h, err)
	}
	if _, err := c.Submit(RoverApp(2, "node-z9"), 5*time.Second); err == nil ||
		!strings.Contains(err.Error(), `placed on node "node-z9", which is not in the cluster`) {
		t.Fatalf("Submit(foreign node) err = %v, want the placement error", err)
	}
	if !c.RunUntilDone(time.Minute) {
		t.Fatal("RunUntilDone waited on a refused submission")
	}
	if got := c.Log().Count(sift.LogAppSubmitted); got != 0 {
		t.Fatalf("%d submissions reached the FTM, want 0", got)
	}
}

// mustSubmit submits an application the test expects the cluster to
// accept.
func mustSubmit(t *testing.T, c *Cluster, app *AppSpec, at time.Duration) *AppHandle {
	t.Helper()
	h, err := c.Submit(app, at)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
