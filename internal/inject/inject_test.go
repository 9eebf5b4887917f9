package inject

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"

	"reesift/internal/apps/rover"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// roverCfg builds a standard single-rover run config.
func roverCfg(seed int64, model Model, target TargetKind) Config {
	p := rover.DefaultParams()
	return Config{
		Seed:   seed,
		Model:  model,
		Target: target,
		Apps:   []*sift.AppSpec{rover.Spec(1, []string{"node-a1", "node-a2"}, p)},
	}
}

func roverVerdict(seed int64) func(fs *sim.FS) string {
	p := rover.DefaultParams()
	ref, err := rover.Reference(p)
	if err != nil {
		panic(err)
	}
	return func(fs *sim.FS) string {
		return rover.Verify(fs, 1, ref, p.Tolerance).String()
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	res := Run(roverCfg(100, ModelNone, TargetNone))
	if !res.Done || res.SystemFailure {
		t.Fatalf("baseline failed: %+v", res)
	}
	if res.Injected != 0 || res.Failed {
		t.Fatalf("baseline should inject nothing: %+v", res)
	}
	if res.Perceived <= res.Actual {
		t.Fatalf("perceived %v must exceed actual %v", res.Perceived, res.Actual)
	}
	if res.Perceived < 60*time.Second || res.Perceived > 100*time.Second {
		t.Fatalf("perceived %v out of calibrated band", res.Perceived)
	}
}

func TestSIGINTIntoApplicationRecovers(t *testing.T) {
	recovered := 0
	injected := 0
	for seed := int64(0); seed < 10; seed++ {
		res := Run(roverCfg(200+seed, ModelSIGINT, TargetApp))
		if res.Injected > 0 {
			injected++
			if res.Done && !res.SystemFailure {
				recovered++
			}
			if res.Failed && res.Class == ClassHang {
				t.Fatalf("seed %d: SIGINT classified as hang", seed)
			}
		}
	}
	if injected == 0 {
		t.Fatal("no run injected (window mis-sized)")
	}
	if recovered != injected {
		t.Fatalf("recovered %d of %d SIGINT app injections", recovered, injected)
	}
}

func TestSIGSTOPIntoApplicationTakesLonger(t *testing.T) {
	var crashTotal, hangTotal time.Duration
	var crashN, hangN int
	for seed := int64(0); seed < 8; seed++ {
		rc := Run(roverCfg(300+seed, ModelSIGINT, TargetApp))
		if rc.Injected > 0 && rc.Done {
			crashTotal += rc.Actual
			crashN++
		}
		rh := Run(roverCfg(300+seed, ModelSIGSTOP, TargetApp))
		if rh.Injected > 0 && rh.Done {
			hangTotal += rh.Actual
			hangN++
		}
	}
	if crashN == 0 || hangN == 0 {
		t.Fatalf("insufficient samples: crash=%d hang=%d", crashN, hangN)
	}
	meanCrash := crashTotal / time.Duration(crashN)
	meanHang := hangTotal / time.Duration(hangN)
	// Table 4: hang runs cost ~20 s more than crash runs (detection
	// latency up to 2x the 20 s progress-indicator period).
	if meanHang <= meanCrash {
		t.Fatalf("hang mean %v should exceed crash mean %v", meanHang, meanCrash)
	}
}

func TestSIGINTIntoFTMDoesNotAffectApplication(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res := Run(roverCfg(400+seed, ModelSIGINT, TargetFTM))
		if !res.Done {
			t.Fatalf("seed %d: app did not complete: %+v", seed, res)
		}
	}
}

func TestSIGSTOPIntoExecArmorMayCorrelate(t *testing.T) {
	correlated := 0
	total := 0
	for seed := int64(0); seed < 12; seed++ {
		res := Run(roverCfg(500+seed, ModelSIGSTOP, TargetExecArmor))
		if res.Injected == 0 {
			continue
		}
		total++
		if !res.Done {
			t.Fatalf("seed %d: system failure from exec ARMOR hang: %+v", seed, res)
		}
		if res.Correlated {
			correlated++
		}
	}
	if total == 0 {
		t.Fatal("no injections landed")
	}
	// The paper saw 22 correlated failures in 98 exec-ARMOR hang runs;
	// with 12 seeds we only require that recovery always succeeded and
	// the mechanism is reachable (0 correlations is plausible at n=12,
	// so no lower bound here).
	t.Logf("correlated %d/%d", correlated, total)
}

func TestHeartbeatArmorInjectionIsInvisibleToApp(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		res := Run(roverCfg(600+seed, ModelSIGINT, TargetHeartbeat))
		if !res.Done || res.Correlated {
			t.Fatalf("seed %d: Heartbeat ARMOR failure impacted the app: %+v", seed, res)
		}
	}
}

func TestRegisterInjectionUntilFailure(t *testing.T) {
	failures := 0
	classes := map[FailureClass]int{}
	for seed := int64(0); seed < 10; seed++ {
		res := Run(roverCfg(700+seed, ModelRegister, TargetFTM))
		if res.Failed {
			failures++
			classes[res.Class]++
		}
	}
	if failures < 5 {
		t.Fatalf("only %d/10 register campaigns induced a failure", failures)
	}
	if classes[ClassSegFault] == 0 {
		t.Fatalf("no segmentation faults among %v", classes)
	}
}

func TestTextInjectionIntoExecArmor(t *testing.T) {
	failures, recovered := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		res := Run(roverCfg(800+seed, ModelText, TargetExecArmor))
		if res.Failed {
			failures++
			if res.Recovered {
				recovered++
			}
		}
	}
	if failures == 0 {
		t.Fatal("text injection never induced a failure")
	}
	if recovered == 0 {
		t.Fatal("no text-induced failure was recovered")
	}
}

func TestAppHeapInjectionMostlyHarmless(t *testing.T) {
	verdicts := map[string]int{}
	for seed := int64(0); seed < 20; seed++ {
		cfg := roverCfg(900+seed, ModelAppHeap, TargetApp)
		cfg.CheckVerdict = roverVerdict(900 + seed)
		res := Run(cfg)
		if res.Injected == 0 {
			continue
		}
		verdicts[res.Verdict]++
	}
	// Table 10: the overwhelming majority of single-bit heap errors in
	// the float matrices have no effect.
	if verdicts["correct"] < verdicts["incorrect"]+verdicts["missing"] {
		t.Fatalf("verdict distribution implausible: %v", verdicts)
	}
}

func TestTargetedHeapInjectionIntoNodeMgmt(t *testing.T) {
	sysFailures := 0
	runs := 0
	for seed := int64(0); seed < 15; seed++ {
		cfg := roverCfg(1000+seed, ModelHeapData, TargetFTM)
		cfg.Element = "node_mgmt"
		// Inject during the setup-heavy early window where node_mgmt
		// data is live.
		cfg.Window = 30 * time.Second
		res := Run(cfg)
		if res.Injected == 0 {
			continue
		}
		runs++
		if res.SystemFailure {
			sysFailures++
		}
	}
	if runs == 0 {
		t.Fatal("no targeted injections landed")
	}
	t.Logf("node_mgmt targeted: %d/%d system failures", sysFailures, runs)
}

func TestTargetedHeapIntoAppParamIsBenign(t *testing.T) {
	// Table 8: app_param (read-only after submission) caused no system
	// failures.
	for seed := int64(0); seed < 10; seed++ {
		cfg := roverCfg(1100+seed, ModelHeapData, TargetFTM)
		cfg.Element = "app_param"
		res := Run(cfg)
		if res.SystemFailure && res.SysMode != SysAppNotCompleted {
			t.Fatalf("seed %d: app_param corruption broke phase %v", seed, res.SysMode)
		}
	}
}

func TestHeapInjectionUntilFailure(t *testing.T) {
	manifested, injectedRuns := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		res := Run(roverCfg(1200+seed, ModelHeap, TargetFTM))
		if res.Injected > 0 {
			injectedRuns++
		}
		if res.Failed {
			manifested++
		}
	}
	// A drawn injection time can fall after the application completes
	// (no error injected, as in the paper), but not in most runs.
	if injectedRuns < 7 {
		t.Fatalf("only %d/10 runs injected", injectedRuns)
	}
	// Table 7: roughly half of the runs showed any effect; require at
	// least some manifestations and some silent runs.
	if manifested == 0 {
		t.Fatal("heap injections never manifested")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(roverCfg(42, ModelSIGINT, TargetApp))
	b := Run(roverCfg(42, ModelSIGINT, TargetApp))
	if a.Perceived != b.Perceived || a.Class != b.Class || a.InjectedAt != b.InjectedAt {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestClassifyMapping(t *testing.T) {
	cases := []struct {
		reason string
		hang   bool
		want   FailureClass
	}{
		{"segmentation fault", false, ClassSegFault},
		{"segmentation fault: corrupted message", false, ClassSegFault},
		{"illegal instruction", false, ClassIllegalInstr},
		{"assertion: element node_mgmt: zero daemon ID", false, ClassAssertion},
		{"restore failed: checkpoint unparseable", false, ClassSegFault},
		{"hang", true, ClassHang},
		{"SIGINT", false, ClassSegFault},
	}
	for _, c := range cases {
		if got := classify(c.reason, c.hang); got != c.want {
			t.Errorf("classify(%q, %v) = %v, want %v", c.reason, c.hang, got, c.want)
		}
	}
}

func TestStrings(t *testing.T) {
	for m := ModelNone; m <= ModelNodeCrash; m++ {
		if m.String() == "" {
			t.Fatalf("model %d has no name", m)
		}
	}
	for k := TargetNone; k <= TargetHeartbeat; k++ {
		if k.String() == "" {
			t.Fatalf("target %d has no name", k)
		}
	}
	for c := ClassNone; c <= ClassAssertion; c++ {
		if c.String() == "" {
			t.Fatalf("class %d has no name", c)
		}
	}
	for s := SysNone; s <= SysAppNotCompleted; s++ {
		if s.String() == "" {
			t.Fatalf("sysmode %d has no name", s)
		}
	}
}

// TestAppHeapFlipIsCopyOnWrite runs one app-heap injection into a region
// whose slice aliases a buffer the program does not own, the way rover's
// regions alias its memoized reference. The flip changes exactly one bit of
// the program's variable and leaves the buffer bit-identical.
func TestAppHeapFlipIsCopyOnWrite(t *testing.T) {
	reference := make([]float64, 512)
	for i := range reference {
		reference[i] = float64(i) + 0.25
	}
	pristine := slices.Clone(reference)
	var seen []float64
	spec := &sift.AppSpec{
		ID: 1, Name: "shared-heap", Ranks: 1, Nodes: []string{"node-a1"},
		PIPeriod: 10 * time.Second, MPIStartTimeout: 10 * time.Second,
	}
	spec.Launcher = func(ac *sift.AppContext) {
		data := reference
		ac.RegisterHeapF64("data", &data)
		ac.PICreate(10 * time.Second)
		for i := uint64(1); i <= 24; i++ {
			ac.Proc.Sleep(5 * time.Second)
			ac.Progress(i)
		}
		seen = data
		ac.NotifyExiting()
	}
	res := Run(Config{Seed: 3, Model: ModelAppHeap, Target: TargetApp, Apps: []*sift.AppSpec{spec}})
	if res.Injected != 1 || len(seen) != len(reference) {
		t.Fatalf("injected %d, program saw %d floats: the trial did not flip its region", res.Injected, len(seen))
	}
	flipped := 0
	for i := range seen {
		flipped += bits.OnesCount64(math.Float64bits(seen[i]) ^ math.Float64bits(pristine[i]))
	}
	if flipped != 1 {
		t.Fatalf("the program's variable differs in %d bits, want 1", flipped)
	}
	if !slices.Equal(reference, pristine) {
		t.Fatal("the flip reached the buffer the region aliased")
	}
}
