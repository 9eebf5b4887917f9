package rover

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"reesift/internal/sift"
	"reesift/internal/sim"
)

func TestGenerateImageDeterministic(t *testing.T) {
	a := GenerateImage(32, 7)
	b := GenerateImage(32, 7)
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatalf("image generation not deterministic at (%d,%d)", r, c)
			}
		}
	}
	c := GenerateImage(32, 8)
	same := true
	for r := range a {
		for cc := range a[r] {
			if a[r][cc] != c[r][cc] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical images")
	}
}

func TestAnalyzeSegmentsTextureRegions(t *testing.T) {
	const n = 64
	img := GenerateImage(n, 1)
	_, labels, err := Analyze(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The three thirds of the image have distinct textures; the
	// dominant label of each third should differ between the leftmost
	// and rightmost thirds (horizontal vs vertical striations).
	dom := func(c0, c1 int) int {
		counts := map[int]int{}
		for r := n / 4; r < 3*n/4; r++ { // interior rows only
			for c := c0; c < c1; c++ {
				counts[labels[r*n+c]]++
			}
		}
		best, bestN := -1, -1
		for l, cnt := range counts {
			if cnt > bestN {
				best, bestN = l, cnt
			}
		}
		return best
	}
	left := dom(4, n/3-4)
	right := dom(2*n/3+4, n-4)
	if left == right {
		t.Fatalf("left and right texture regions got the same label %d", left)
	}
}

func TestKmeansAssignsAllPoints(t *testing.T) {
	features := [][]float64{
		make([]float64, 16), make([]float64, 16), make([]float64, 16),
	}
	for i := 0; i < 16; i++ {
		features[0][i] = float64(i % 2 * 10)
	}
	labels := kmeans(features, 4, 2)
	if len(labels) != 16 {
		t.Fatalf("labels length %d", len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= 2 {
			t.Fatalf("label %d out of range", l)
		}
	}
	// The two feature values must land in different clusters.
	if labels[0] == labels[1] {
		t.Fatal("kmeans failed to separate two obvious clusters")
	}
}

func TestStatusFileRoundTrip(t *testing.T) {
	fs := sim.NewFS()
	if got := readStatus(fs, 1); got != 0 {
		t.Fatalf("missing status = %d, want 0", got)
	}
	writeStatus(fs, 1, 2)
	if got := readStatus(fs, 1); got != 2 {
		t.Fatalf("status = %d, want 2", got)
	}
	// Corrupt status falls back to a full restart.
	fs.Write(StatusPath(1), []byte("garbage"))
	if got := readStatus(fs, 1); got != 0 {
		t.Fatalf("corrupt status = %d, want 0", got)
	}
}

func TestF64CodecProperty(t *testing.T) {
	f := func(v []float64) bool {
		for i, x := range v {
			if math.IsNaN(x) {
				v[i] = 0
			}
		}
		got := decodeF64s(encodeF64s(v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOutputRoundTripAndVerify(t *testing.T) {
	fs := sim.NewFS()
	img := GenerateImage(32, 1)
	features, labels, err := Analyze(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	writeOutput(fs, 5, nil, features, labels)
	out, err := ReadOutput(fs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Labels) != 32*32 {
		t.Fatalf("labels = %d", len(out.Labels))
	}
	if v := Verify(fs, 5, features, 1e-9); v != VerdictCorrect {
		t.Fatalf("verdict = %v, want correct", v)
	}
}

func TestVerifyDetectsLargeCorruption(t *testing.T) {
	fs := sim.NewFS()
	img := GenerateImage(32, 1)
	features, labels, err := Analyze(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one feature value massively (an exponent-bit flip).
	corrupted := make([][]float64, 3)
	for f := range features {
		corrupted[f] = append([]float64(nil), features[f]...)
	}
	corrupted[1][100] *= 1e60
	writeOutput(fs, 6, nil, corrupted, labels)
	if v := Verify(fs, 6, features, 1e-2); v != VerdictIncorrect {
		t.Fatalf("verdict = %v, want incorrect", v)
	}
}

func TestVerifyToleratesTinyPerturbation(t *testing.T) {
	fs := sim.NewFS()
	img := GenerateImage(32, 1)
	features, labels, err := Analyze(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := make([][]float64, 3)
	for f := range features {
		perturbed[f] = append([]float64(nil), features[f]...)
	}
	// A low-mantissa-bit flip: relative change ~1e-12.
	perturbed[0][50] *= 1 + 1e-12
	writeOutput(fs, 7, nil, perturbed, labels)
	if v := Verify(fs, 7, features, 1e-2); v != VerdictCorrect {
		t.Fatalf("verdict = %v, want correct", v)
	}
}

func TestVerifyMissingOutput(t *testing.T) {
	fs := sim.NewFS()
	if v := Verify(fs, 9, [][]float64{{1}, {1}, {1}}, 1e-2); v != VerdictMissing {
		t.Fatalf("verdict = %v, want missing", v)
	}
}

// TestRoverRunsInSIFTEnvironment is the integration test: the full
// application under the full SIFT environment, fault-free, must complete
// with correct output and a paper-plausible execution time.
func TestRoverRunsInSIFTEnvironment(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(21))
	defer k.Shutdown()
	env := sift.New(k, sift.DefaultEnvConfig())
	env.Setup()
	p := DefaultParams()
	app := Spec(1, []string{"node-a1", "node-a2"}, p)
	h := env.Submit(app, 5*time.Second)
	env.AppDoneHook = func(sift.AppID) { k.Stop() }
	k.Run(10 * time.Minute)
	if !h.Done {
		t.Fatal("rover did not complete")
	}
	if h.Restarts != 0 {
		t.Fatalf("restarts = %d", h.Restarts)
	}
	perceived, _ := h.PerceivedTime()
	// Paper baseline: ~76-78 s perceived. Our virtual pipeline is
	// calibrated to the same ballpark.
	if perceived < 60*time.Second || perceived > 100*time.Second {
		t.Fatalf("perceived time %v outside the calibrated 60-100 s band", perceived)
	}
	// Output verification against the reference pipeline.
	img := GenerateImage(p.ImageSize, p.Seed)
	refFeatures, _, err := Analyze(img, p.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(k.SharedFS(), 1, refFeatures, p.Tolerance); v != VerdictCorrect {
		t.Fatalf("output verdict = %v, want correct", v)
	}
}

// TestRoverRestartSkipsCompletedFilters checks the rudimentary
// checkpointing: an application killed after filter 1 restarts and skips
// the completed filter (total time shorter than two cold runs).
func TestRoverRestartSkipsCompletedFilters(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(22))
	defer k.Shutdown()
	env := sift.New(k, sift.DefaultEnvConfig())
	env.Setup()
	p := DefaultParams()
	app := Spec(1, []string{"node-a1", "node-a2"}, p)
	h := env.Submit(app, 5*time.Second)
	// Kill rank 0 ~35 s in: the first filter (ending ~28 s) is done and
	// checkpointed, the second is in flight.
	k.Schedule(35*time.Second, func() {
		if pid := env.AppProc(1, 0); pid != sim.NoPID {
			k.Kill(pid, "SIGINT")
		}
	})
	env.AppDoneHook = func(sift.AppID) { k.Stop() }
	k.Run(20 * time.Minute)
	if !h.Done {
		t.Fatal("rover did not complete after restart")
	}
	if h.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", h.Restarts)
	}
	perceived, _ := h.PerceivedTime()
	// A full redo would cost ~76 s + ~65 s; skipping filter 0 saves
	// ~20 s. Accept a broad band that excludes the no-checkpoint case.
	if perceived > 125*time.Second {
		t.Fatalf("perceived %v suggests completed filters were redone", perceived)
	}
	img := GenerateImage(p.ImageSize, p.Seed)
	refFeatures, _, err := Analyze(img, p.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	if v := Verify(k.SharedFS(), 1, refFeatures, p.Tolerance); v != VerdictCorrect {
		t.Fatalf("output after restart = %v, want correct", v)
	}
}
