package inject

import "sync/atomic"

// Tally is a census snapshot of injection work: framework runs,
// individual error insertions, manifested target failures, and system
// failures.
type Tally struct {
	Runs           int64 `json:"runs"`
	Injections     int64 `json:"injections"`
	Failures       int64 `json:"failures"`
	SystemFailures int64 `json:"system_failures"`
}

// Add returns the component-wise sum t + o.
func (t Tally) Add(o Tally) Tally {
	return Tally{
		Runs:           t.Runs + o.Runs,
		Injections:     t.Injections + o.Injections,
		Failures:       t.Failures + o.Failures,
		SystemFailures: t.SystemFailures + o.SystemFailures,
	}
}

// Census is a concurrency-safe tally accumulator. Every run whose
// Config lists a census adds itself there, so a campaign (or a
// scenario, or any other scope) owns an exact count of its own work —
// including trials a failure-quota wave computed past the stopping
// index — even while other campaigns run concurrently. The zero value
// is ready to use.
type Census struct {
	runs        atomic.Int64
	injections  atomic.Int64
	failures    atomic.Int64
	sysFailures atomic.Int64
}

// Tally returns a snapshot of the census.
func (c *Census) Tally() Tally {
	return Tally{
		Runs:           c.runs.Load(),
		Injections:     c.injections.Load(),
		Failures:       c.failures.Load(),
		SystemFailures: c.sysFailures.Load(),
	}
}

// AddTally folds a finished scope's tally into this census — the
// roll-up path a campaign uses to push its per-cell counts into an
// enclosing scenario census.
func (c *Census) AddTally(t Tally) {
	c.runs.Add(t.Runs)
	c.injections.Add(t.Injections)
	c.failures.Add(t.Failures)
	c.sysFailures.Add(t.SystemFailures)
}

// add accumulates one classified run.
func (c *Census) add(res *Result) {
	c.runs.Add(1)
	c.injections.Add(int64(res.Injected))
	if res.Failed {
		c.failures.Add(1)
	}
	if res.SystemFailure {
		c.sysFailures.Add(1)
	}
}

// record accumulates one classified run into every census the run's
// Config listed.
func record(cfg *Config, res *Result) {
	for _, c := range cfg.Census {
		if c != nil {
			c.add(res)
		}
	}
}
