// Package campaign is the parallel injection-campaign engine. Every
// trial in a campaign runs on a simulation kernel and SIFT environment
// reset for it from a derived seed (a worker reuses the ones its last
// trial left, see inject.NewRunner), so a trial is a pure function of
// (seed, config); the engine fans trials across a worker pool and
// reduces their results in run-index order, which makes every campaign's
// aggregate a pure function of the campaign seed regardless of the
// worker count.
//
// Two shapes cover all of the paper's campaigns:
//
//   - Map runs a fixed number of trials (the SIGINT/SIGSTOP, heap, and
//     multi-application campaigns).
//   - Until runs trials in fixed-size waves until an in-order acceptance
//     predicate is satisfied (the register/text failure-quota campaigns:
//     "between 90 and 100 error activations per target"). The accepted
//     run count is exactly the count a sequential loop would choose.
//
// Seed derivation lives here too (DeriveSeed): campaigns are keyed by a
// string identity instead of ad-hoc additive offsets, so distinct
// campaigns can never collide on a seed range.
package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: anything below 1 means
// GOMAXPROCS (use every core).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs trials 0..n-1 across a pool of the given size and returns
// their results indexed by run number. The trial function must be a pure
// function of its run index (it is called concurrently); the returned
// order is always run order, so any in-order reduction over the slice is
// deterministic at every worker count.
func Map[T any](workers, n int, trial func(run int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			out[i] = trial(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = trial(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// waveSize is the number of trials Until computes per wave. It is
// deliberately a constant rather than the worker count: the set of
// trials *computed* (including the overshoot discarded past the
// stopping index) is then a pure function of the campaign, so even
// side effects of discarded trials — the campaign's injection census —
// are identical at every worker count and on every machine.
const waveSize = 16

// Until runs trials 0,1,2,... in fixed-size waves of waveSize and feeds
// each result to accept in run order until accept reports the campaign
// is done or maxRuns trials have been accepted. It returns the number
// of trials accepted, which matches a sequential
//
//	for !done && runs < maxRuns { done = accept(trial(runs)); runs++ }
//
// loop exactly: results computed past the stopping index are discarded
// before accept ever sees them, so the aggregate and the run count are
// independent of the worker count.
func Until[T any](workers, maxRuns int, trial func(run int) T, accept func(T) bool) int {
	if maxRuns <= 0 {
		return 0
	}
	wave := waveSize
	accepted := 0
	for base := 0; base < maxRuns; base += wave {
		w := wave
		if base+w > maxRuns {
			w = maxRuns - base
		}
		results := Map(workers, w, func(i int) T { return trial(base + i) })
		for _, r := range results {
			accepted++
			if accept(r) {
				return accepted
			}
			if accepted >= maxRuns {
				return accepted
			}
		}
	}
	return accepted
}
