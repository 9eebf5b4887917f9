// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections 4-8). Each experiment builds injection campaigns on
// internal/inject, aggregates them with internal/stats, and produces a
// typed table shaped like the paper's. Every experiment self-registers as
// a reesift scenario (see register.go), so the CLI and any other façade
// consumer discovers them from the registry. The same code serves the
// golden tests (a tiny scale), the CLI's default reesift.SmallScale and
// its paper-scale runs (reesift.PaperScale).
package experiments

import (
	"time"

	"reesift/internal/apps/rover"
	engine "reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/stats"
	"reesift/internal/trace"
	"reesift/pkg/reesift"
)

// Scale sets campaign sizes; the canonical definition lives in the
// public façade.
type Scale = reesift.Scale

// Table and Cell are the façade's typed experiment products.
type (
	Table = reesift.Table
	Cell  = reesift.Cell
)

// Cell shorthands for table construction.
var (
	str    = reesift.Str
	num    = reesift.Int
	flt    = reesift.Float
	strRow = reesift.StrRow
)

// durCell renders a duration as a seconds cell with two decimals.
func durCell(d time.Duration) Cell { return reesift.Seconds(d.Seconds()) }

// secCell formats a stats sample as the paper's "mean ± ci" seconds cell.
func secCell(s *stats.Sample) Cell { return reesift.SampleCell(s) }

// roverApp builds the standard texture-analysis submission on the 4-node
// testbed.
func roverApp() *sift.AppSpec {
	return rover.Spec(1, []string{"node-a1", "node-a2"}, rover.DefaultParams())
}

// agg accumulates per-campaign aggregates shared by several tables.
type agg struct {
	injectedRuns int
	failures     int
	sucRec       int
	segFault     int
	illegal      int
	hang         int
	assertion    int
	sysFailures  int
	correlated   int
	perceived    stats.Sample
	actual       stats.Sample
	recovery     stats.Sample
	// Output verdicts (only counted when the campaign wires
	// CheckVerdict).
	verdictCorrect   int
	verdictIncorrect int
	verdictMissing   int
	// Recovery-subsystem observables.
	daemonReinstalls int
	ftmMigrations    int
	completed        int
	// Epoch-reconciliation observables: evicted superseded incarnations,
	// stale-epoch rejections, and runs whose stood-down incarnation was
	// a recoverer (FTM / Heartbeat ARMOR) — a reconciled split brain.
	standDowns       int
	supersededEpochs int
	staleRecoverers  int
}

func (a *agg) add(r inject.Result) {
	if r.Injected > 0 {
		a.injectedRuns++
	}
	if r.Failed {
		a.failures++
		if !r.SystemFailure {
			a.sucRec++
		}
		switch r.Class {
		case inject.ClassSegFault:
			a.segFault++
		case inject.ClassIllegalInstr:
			a.illegal++
		case inject.ClassHang:
			a.hang++
		case inject.ClassAssertion:
			a.assertion++
		}
	}
	if r.SystemFailure {
		a.sysFailures++
	}
	if r.Correlated {
		a.correlated++
	}
	if r.Done {
		a.completed++
		a.perceived.AddDuration(r.Perceived)
		a.actual.AddDuration(r.Actual)
	}
	if r.Recovered && r.RecoveryTime > 0 {
		a.recovery.AddDuration(r.RecoveryTime)
	}
	switch r.Verdict {
	case "correct":
		a.verdictCorrect++
	case "incorrect":
		a.verdictIncorrect++
	case "missing":
		a.verdictMissing++
	}
	a.daemonReinstalls += r.DaemonReinstalls
	a.ftmMigrations += r.FTMMigrations
	a.standDowns += r.StandDowns
	a.supersededEpochs += r.SupersededEpochs
	if r.StaleRecovererStoodDown {
		a.staleRecoverers++
	}
}

// runCampaign executes a public reesift.Campaign wired to the scale —
// its seed, its worker pool, and the per-scenario census RunScenario
// threads through Scale.Census. Every injection campaign in this
// package goes through here: the scenarios are written on the same
// public primitives a user authors campaigns with, and their seed
// identities ("table4/SIGINT/FTM", ...) come from the campaign and
// cell names.
func runCampaign(sc Scale, name string, cells ...reesift.CampaignCell) (*reesift.CampaignResult, error) {
	return reesift.Campaign{
		Name:    name,
		Seed:    sc.Seed,
		Workers: sc.Workers,
		Census:  sc.Census,
		Trace:   sc.Trace,
		Replay:  sc.Replay,
		Cells:   cells,
	}.Run()
}

// runTrials runs n trials of one harness through inject.Run on the
// scale's worker pool and returns their results in run order: the figure
// and ablation scenarios, whose trials arm their own faults (Config.Arm)
// instead of drawing a registered model's. Each trial's seed derives from
// (sc.Seed, id, run), and its trace and replay identity is campaign id,
// cell arm. The paired arms of an ablation share id, and so replay
// identical kernels, but write and replay their own bundles. Like a
// campaign, runTrials counts every trial in sc.Census, traces it under
// sc.Trace, and under sc.Replay runs only the recorded trial.
func runTrials(sc Scale, id, arm string, n int, config func(run int) inject.Config) []inject.Result {
	execute := func(run int) inject.Result {
		cfg := config(run)
		cfg.Seed = engine.DeriveSeed(sc.Seed, id, run)
		cfg.Census = []*inject.Census{sc.Census}
		cfg.Trace = trace.TrialOptions(sc.Trace, id, arm, run, sc.Seed)
		return inject.Run(cfg)
	}
	if rp := sc.Replay; rp != nil {
		if rp.Campaign != id || rp.Cell != arm {
			return nil
		}
		r := execute(rp.Run)
		if rp.OnResult != nil {
			rp.OnResult(r)
		}
		return []inject.Result{r}
	}
	return engine.Map(sc.Workers, n, execute)
}

// foldAgg folds one cell's results into the shared aggregate.
func foldAgg(cr *reesift.CellResult) agg {
	var a agg
	for _, r := range cr.Results {
		a.add(r)
	}
	return a
}

// roverInjection is the standard single-application injection template:
// the texture-analysis program on the 4-node testbed, the given error
// model aimed at the given target.
func roverInjection(model inject.Model, target inject.TargetKind) reesift.Injection {
	return reesift.Injection{
		Model:  model,
		Target: target,
		Apps:   []*sift.AppSpec{roverApp()},
	}
}
