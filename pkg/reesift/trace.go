package reesift

import "reesift/internal/trace"

// TraceSpec switches on the structured trace recorder for every run of a
// campaign or scenario: set Dir (where breach repro bundles go), Buffer
// (the per-run ring capacity) and MetricsEvery (the metric sampling
// period). Runs classified as system failures snapshot a self-contained
// repro bundle; tracing draws no randomness, so classifications are
// identical traced and untraced. See trace.Spec for each field.
type TraceSpec = trace.Spec

// Replay pins a campaign to exactly one recorded run: the cell and run
// index a breach bundle identifies. Cells other than Replay.Cell are
// skipped (their CellResult is empty), the matching cell executes only
// Replay.Run — with its campaign-derived seed, so the kernel replays the
// recorded trial bit-for-bit — and OnResult receives the verdict. Used
// by the CLI's -replay mode; campaigns whose Name differs from
// Replay.Campaign do not run at all.
type Replay struct {
	// Campaign and Cell name the recorded run's location.
	Campaign string
	Cell     string
	// Run is the run index within the cell.
	Run int
	// OnResult, if set, receives the replayed run's classified result.
	OnResult func(InjectionResult)
}

// ReadBundle loads a breach repro bundle written by a traced campaign
// (the path Result.BreachBundles / InjectionResult.BreachBundle report).
func ReadBundle(path string) (*trace.Bundle, error) { return trace.ReadBundle(path) }

// Bundle is a self-contained breach repro bundle: the identity of the
// failed run (scenario, campaign, cell, run index, derived seed), the
// cluster shape, the classified verdict, and the trace tail with the
// full-stream digest. reesift.ReadBundle loads one; the CLI's -replay
// mode re-executes it.
type Bundle = trace.Bundle

// TraceRecord is one structured trace record (see internal/trace for
// the kind vocabulary).
type TraceRecord = trace.Record
