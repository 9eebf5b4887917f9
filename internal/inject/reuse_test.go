package inject_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"reesift/internal/campaign"
	_ "reesift/internal/experiments" // registers the scenarios
	"reesift/internal/inject"
	"reesift/internal/sim"
	"reesift/internal/trace"
	"reesift/pkg/reesift"
)

// outcome is what a run leaves: its Result, and a fingerprint of the world
// it ran in as it stood at the end (every node's state and files, the
// shared store, the rendered event log).
type outcome struct {
	res   inject.Result
	world string
}

// trial is one run a scenario made through inject.Run: its configuration
// and the outcome it had in the scenario's own campaign.
type trial struct {
	scenario string
	cfg      inject.Config
	out      outcome
}

// nodes is the size of the trial's cluster.
func (tr trial) nodes() int {
	switch {
	case tr.cfg.Env != nil:
		return len(tr.cfg.Env.Nodes)
	case len(tr.cfg.Apps) > 1:
		return 6
	}
	return 4
}

// observed records the outcome of every run inject.Run completes: a
// replay's under its trace options, any other run as a new trial.
type observed struct {
	mu       sync.Mutex
	scenario string
	trials   []trial
	replays  map[*trace.Options]outcome
}

func (o *observed) add(cfg inject.Config, r *inject.Runner) {
	out := outcome{res: *r.Result(), world: fingerprint(r)}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.replays[cfg.Trace]; ok {
		o.replays[cfg.Trace] = out
		return
	}
	o.trials = append(o.trials, trial{scenario: o.scenario, cfg: cfg, out: out})
}

// replay runs tr again through inject.Run and returns its outcome.
func (o *observed) replay(tr trial) outcome {
	cfg := tr.cfg
	cfg.Census = nil
	opts := *cfg.Trace
	cfg.Trace = &opts
	o.mu.Lock()
	o.replays[&opts] = outcome{}
	o.mu.Unlock()
	inject.Run(cfg)
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.replays[&opts]
	delete(o.replays, &opts)
	return out
}

// fingerprint digests the end state of a run's world.
func fingerprint(r *inject.Runner) string {
	h := fnv.New64a()
	files := func(fs *sim.FS) {
		for _, path := range fs.List() {
			data, _ := fs.Read(path)
			fmt.Fprintf(h, "%s %d ", path, len(data))
			h.Write(data)
		}
	}
	for _, n := range r.Kernel().Nodes() {
		fmt.Fprintf(h, "node %s up=%v procs=%v\n", n.Name(), n.Up(), n.Procs())
		files(n.RAMDisk())
	}
	files(r.Kernel().SharedFS())
	for e := range r.Env().Log.Each() {
		fmt.Fprintf(h, "%v %s %s\n", e.At, e.Kind, e.Detail())
	}
	io.WriteString(h, fmt.Sprint(r.Env().Log.Detections, r.Env().Log.Recoveries, r.Env().Log.AppDetections, r.Env().Log.AppRecoveries))
	return fmt.Sprintf("%016x", h.Sum64())
}

// scenarioTrials runs every registered scenario at a tiny scale, traced,
// and records the runs its campaigns make, in completion order. In short
// mode (the race stress) the campaigns are smaller still, the chaos
// scenario's day-long trials are left out, and at most four runs of each
// scenario are kept.
func (o *observed) scenarioTrials(t *testing.T) {
	t.Helper()
	sc := reesift.Scale{
		Runs: 6, Table5Runs: 4, FailureQuota: 6, MaxRunsPerCell: 20, TargetedHeapRuns: 6,
		AppHeapRuns: 20, MultiAppRuns: 2, ChaosTrials: 2, ChaosHorizon: 24 * time.Hour, Seed: 2,
		Trace: &reesift.TraceSpec{},
	}
	if testing.Short() {
		sc.Runs, sc.Table5Runs, sc.FailureQuota, sc.MaxRunsPerCell = 2, 2, 2, 4
		sc.TargetedHeapRuns, sc.AppHeapRuns, sc.MultiAppRuns = 2, 4, 1
	}
	for _, s := range reesift.Scenarios() {
		if testing.Short() && s.ID == "chaos" {
			continue
		}
		o.scenario = s.ID
		n := len(o.trials)
		if _, err := reesift.RunScenario(s, sc); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if testing.Short() && len(o.trials) > n+4 {
			o.trials = o.trials[:n+4]
		}
	}
}

// alternating orders the trials at random, but so that consecutive trials
// differ in cluster size wherever the sizes left allow it.
func alternating(trials []trial, rng *rand.Rand) []int {
	bySize := map[int][]int{}
	for i, tr := range trials {
		bySize[tr.nodes()] = append(bySize[tr.nodes()], i)
	}
	sizes := make([]int, 0, len(bySize))
	for n, idx := range bySize {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sizes = append(sizes, n)
	}
	slices.Sort(sizes)
	order := make([]int, 0, len(trials))
	last := -1
	for len(order) < len(trials) {
		// Draw from the size with the most trials left, other than the
		// last one drawn.
		pick := -1
		for _, n := range sizes {
			if len(bySize[n]) > 0 && n != last && (pick < 0 || len(bySize[n]) > len(bySize[pick])) {
				pick = n
			}
		}
		if pick < 0 {
			pick = last
		}
		order = append(order, bySize[pick][0])
		bySize[pick] = bySize[pick][1:]
		last = pick
	}
	return order
}

// TestTrialKitReuseMatchesFresh is the oracle for trial kit reuse. Every
// run the registered scenarios make at a tiny scale, traced, is replayed:
// once on a kit built for it alone, and again on kits the other runs left,
// in a random order that alternates cluster sizes, first on one worker and
// then on eight, so kits also move between goroutines. Every field of
// every Result, the trace digest and record count included, and the
// fingerprint of the world it ended in must match the fresh replay, both
// in the scenario's own run and in the reused replays. Outcomes are
// compared only once all runs have finished, so a Result that shares
// storage with a kit shows up as a later run's change.
//
// Not parallel: it watches every run inject.Run completes.
func TestTrialKitReuseMatchesFresh(t *testing.T) {
	o := &observed{replays: map[*trace.Options]outcome{}}
	stop := inject.ObserveTrials(o.add)
	defer stop()
	o.scenarioTrials(t)
	trials := o.trials
	sizes := map[int]int{}
	for _, tr := range trials {
		sizes[tr.nodes()]++
	}
	t.Logf("%d runs from the registered scenarios; runs per cluster size: %v", len(trials), sizes)
	if len(sizes) < 2 {
		t.Fatalf("the scenarios ran clusters of one size only (%v): nothing to alternate", sizes)
	}

	fresh := make([]outcome, len(trials))
	for i, tr := range trials {
		inject.DropKits()
		fresh[i] = o.replay(tr)
	}
	order := alternating(trials, rand.New(rand.NewSource(1)))
	serial := make([]outcome, len(trials))
	for _, i := range order {
		serial[i] = o.replay(trials[i])
	}
	parallel := make([]outcome, len(trials))
	campaign.Map(8, len(order), func(j int) struct{} {
		parallel[order[j]] = o.replay(trials[order[j]])
		return struct{}{}
	})

	for i, tr := range trials {
		if tr.out.res.TraceDigest == "" {
			t.Fatalf("%s run %d (seed %d): untraced", tr.scenario, i, tr.cfg.Seed)
		}
		for _, got := range []struct {
			how string
			out outcome
		}{{"in its scenario", tr.out}, {"on reused kits, one worker", serial[i]}, {"on reused kits, eight workers", parallel[i]}} {
			diff := resultDiff(got.out.res, fresh[i].res)
			if got.out.world != fresh[i].world {
				diff += fmt.Sprintf("world %s, fresh %s; ", got.out.world, fresh[i].world)
			}
			if diff != "" {
				t.Errorf("%s run %d (seed %d, %d nodes) %s: %s", tr.scenario, i, tr.cfg.Seed, tr.nodes(), got.how, diff)
			}
		}
	}
}

// resultDiff names the Result fields on which got and want differ.
func resultDiff(got, want inject.Result) string {
	var diff string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			diff += fmt.Sprintf("%s = %+v, fresh %+v; ", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return diff
}
