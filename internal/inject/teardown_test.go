package inject

import (
	"runtime"
	"testing"
	"time"

	"reesift/internal/sift"
)

// install is one completed ARMOR install of a trial: when the daemon
// logged it, and on which node.
type install struct {
	at   time.Duration
	node string
}

// runTrial runs one trial on the default 4-node cluster through the
// Runner lifecycle, crashing node at crashAt when crashAt is positive, and
// returns the installs it completed. The kernel is shut down before it
// returns, as Run does.
func runTrial(seed int64, crashAt time.Duration, node string) []install {
	cfg := roverCfg(seed, ModelNone, TargetNone)
	if crashAt > 0 {
		cfg.Arm = func(r *Runner) {
			r.Kernel().Schedule(crashAt, func() { r.Kernel().CrashNode(node) })
		}
	}
	r := NewRunner(cfg)
	defer r.Kernel().Shutdown()
	handles := r.Deploy()
	r.Kernel().Run(r.RunConfig().Timeout)
	r.Finish(handles)
	var done []install
	for e := range r.Env().Log.All(sift.LogArmorInstalled) {
		done = append(done, install{at: e.At, node: e.Node()})
	}
	return done
}

// TestTrialTeardownLeaksNoGoroutines is the teardown leak check for a
// full trial. Half the trials crash a node halfway through one of its
// daemon's install delays, so the daemon dies with the install message
// parked on a borrowed coroutine; the kernel shutdown must return that
// coroutine to the pool like every other. Each trial is run once to warm
// the pool, then all of them again five times: the goroutine count
// (pooled coroutines included) must not grow.
func TestTrialTeardownLeaksNoGoroutines(t *testing.T) {
	half := sift.DefaultEnvConfig().InstallDelay / 2
	type trial struct {
		seed    int64
		crashAt time.Duration
		node    string
	}
	var trials []trial
	for seed := int64(1); seed <= 5; seed++ {
		installs := runTrial(seed, 0, "")
		if len(installs) == 0 {
			t.Fatalf("seed %d: no ARMOR installs", seed)
		}
		in := installs[int(seed)%len(installs)]
		trials = append(trials, trial{seed: seed}, trial{seed: seed, crashAt: in.at - half, node: in.node})
	}
	for _, tr := range trials {
		if tr.crashAt == 0 {
			continue
		}
		for _, in := range runTrial(tr.seed, tr.crashAt, tr.node) {
			if in.node == tr.node && in.at == tr.crashAt+half {
				t.Fatalf("seed %d: the install on %s finished although its node crashed mid-delay", tr.seed, tr.node)
			}
		}
	}
	before := runtime.NumGoroutine()
	for range 5 {
		for _, tr := range trials {
			runTrial(tr.seed, tr.crashAt, tr.node)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over %d trials", before, after, 5*len(trials))
	}
}
