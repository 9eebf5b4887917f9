package reesift

import (
	"fmt"

	engine "reesift/internal/campaign"
	"reesift/internal/chaos"
	"reesift/internal/inject"
	"reesift/internal/trace"
)

// Tally counts injection work: framework runs, individual error
// insertions, manifested target failures, and system failures. For
// failure-quota cells the run count includes the fixed-size wave's
// deterministic overshoot past the stopping index — real executed work,
// identical at every worker count.
type Tally = inject.Tally

// Census is a concurrency-safe Tally accumulator. Campaigns always keep
// an exact census of their own runs; pass a shared Census (via
// Campaign.Census or Scale.Census) to roll several campaigns up into
// one scope.
type Census = inject.Census

// CampaignCell is one named cell of a campaign: an injection
// configuration times a run count. The cell's Injection is the
// template for every run; its Seed is ignored — per-run seeds derive
// from the campaign seed and the cell's identity, so renaming a cell
// (or the campaign) re-draws its seed stream and no two cells ever
// replay the same kernels.
type CampaignCell struct {
	// Name is the cell's identity within the campaign. Per-run seeds
	// derive from DeriveSeed(campaign.Seed, "<campaign>/<cell>", run).
	// Name may be empty in a single-cell campaign whose Campaign.Name
	// already identifies the work.
	Name string
	// Runs is the number of trials (for failure-quota cells, the bound
	// on the search).
	Runs int
	// FailureQuota, when positive, turns the cell into a failure-quota
	// search (the paper's register/text methodology: inject until the
	// target has failed this many times, or Runs trials are exhausted).
	// Trials run in deterministic fixed-size waves; the accepted run
	// count is exactly what a sequential loop would choose.
	FailureQuota int
	// Injection is the run template. Its Seed field is ignored.
	Injection Injection
}

// Campaign is a user-authorable fault-injection campaign: named cells
// of injection configurations times run counts, fanned across a worker
// pool with campaign-derived seeds. A campaign's results — every table
// cell and every tally — are a pure function of (Campaign, Seed): the
// worker count changes wall-clock time only.
type Campaign struct {
	// Name identifies the campaign; it prefixes every cell's seed
	// identity. Identities form a global namespace — two campaigns with
	// different names draw statistically independent seed streams, and
	// two campaigns share streams only by sharing a name on purpose
	// (paired ablation arms do this to replay identical kernels).
	Name string
	// Seed is the campaign base seed.
	Seed int64
	// Workers is the worker-pool size; zero or negative means
	// GOMAXPROCS.
	Workers int
	// Cells are run in order; each cell fans its runs across the pool.
	Cells []CampaignCell
	// Observer, if set, receives per-run start and result callbacks in
	// seed order (see Observer).
	Observer *Observer
	// Census, if set, additionally receives every run this campaign
	// performs — the roll-up hook an enclosing scope (a scenario, a
	// sweep of campaigns) uses for exact attribution.
	Census *Census
	// Trace, if set, records every run's structured trace and snapshots
	// breach repro bundles (see TraceSpec). Tracing never perturbs
	// classification: results are identical with or without it.
	Trace *TraceSpec
	// Replay, if set, pins the campaign to the single recorded run the
	// spec names (see Replay). Campaigns with a different Name run
	// nothing.
	Replay *Replay
}

// CellResult is one cell's outcome: the accepted runs' classified
// results in seed order, plus the cell's exact tally.
type CellResult struct {
	// Name is the cell's name; Identity is the full seed identity
	// ("<campaign>/<cell>") its runs derive from.
	Name     string `json:"name"`
	Identity string `json:"identity"`
	// Runs is the number of accepted runs (for failure-quota cells this
	// is the count a sequential search would choose; Tally.Runs also
	// counts the deterministic wave overshoot).
	Runs int `json:"runs"`
	// Results holds the accepted runs' outcomes, indexed by run.
	Results []InjectionResult `json:"results"`
	// Tally is the cell's exact injection census.
	Tally Tally `json:"tally"`
}

// CampaignResult is a completed campaign: per-cell results in campaign
// order plus the campaign's rolled-up tally.
type CampaignResult struct {
	Name  string       `json:"name"`
	Seed  int64        `json:"seed"`
	Cells []CellResult `json:"cells"`
	// Tally is the sum of the cell tallies — the campaign's exact
	// injection census, safe to attribute even while other campaigns
	// run concurrently in the process.
	Tally Tally `json:"tally"`
}

// Cell returns the named cell's result, or nil if no such cell ran.
func (r *CampaignResult) Cell(name string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Name == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// cloneApps shallow-copies the app specs for one run. Spec fields are
// read-only during a run, so a shallow copy isolates the one mutable
// touch point (Submit's MPIStartTimeout backfill) while sharing the
// launcher and node list.
func cloneApps(apps []*AppSpec) []*AppSpec {
	if len(apps) == 0 {
		return nil
	}
	out := make([]*AppSpec, len(apps))
	for i, a := range apps {
		if a == nil {
			continue
		}
		c := *a
		out[i] = &c
	}
	return out
}

// cellIdentity joins the campaign and cell names into the seed identity
// ("table4/SIGINT/FTM"). Either part may be empty; at least one must
// not be.
func cellIdentity(campaign, cell string) string {
	switch {
	case campaign == "":
		return cell
	case cell == "":
		return campaign
	}
	return campaign + "/" + cell
}

// validate checks the whole campaign eagerly — every cell's injection
// template, run counts, and identity uniqueness — so a misconfigured
// cell surfaces before any simulation work, not hours into a sweep.
func (c Campaign) validate() ([]inject.Config, []string, error) {
	if len(c.Cells) == 0 {
		return nil, nil, fmt.Errorf("reesift: Campaign %q: no cells", c.Name)
	}
	cfgs := make([]inject.Config, len(c.Cells))
	ids := make([]string, len(c.Cells))
	seen := make(map[string]int, len(c.Cells))
	for i, cell := range c.Cells {
		id := cellIdentity(c.Name, cell.Name)
		if id == "" {
			return nil, nil, fmt.Errorf("reesift: Campaign: cell %d has no identity (name the campaign or the cell)", i)
		}
		if j, dup := seen[id]; dup {
			return nil, nil, fmt.Errorf("reesift: Campaign %q: cells %d and %d share the seed identity %q — they would replay identical kernels", c.Name, j, i, id)
		}
		seen[id] = i
		if cell.Runs <= 0 {
			return nil, nil, fmt.Errorf("reesift: Campaign %q: cell %q: Runs must be positive, got %d", c.Name, id, cell.Runs)
		}
		if cell.FailureQuota < 0 {
			return nil, nil, fmt.Errorf("reesift: Campaign %q: cell %q: FailureQuota must not be negative, got %d", c.Name, id, cell.FailureQuota)
		}
		cfg, err := cell.Injection.config()
		if err != nil {
			return nil, nil, fmt.Errorf("reesift: Campaign %q: cell %q: %w", c.Name, id, err)
		}
		cfgs[i] = cfg
		ids[i] = id
	}
	return cfgs, ids, nil
}

// Run executes the campaign: cells in order, each cell's runs fanned
// across the worker pool, results reduced in seed order. Validation
// errors surface before any simulation work.
func (c Campaign) Run() (*CampaignResult, error) {
	cfgs, ids, err := c.validate()
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{Name: c.Name, Seed: c.Seed}
	if c.Replay != nil && c.Replay.Campaign != c.Name {
		return res, nil // the recorded run lives in another campaign
	}
	for i, cell := range c.Cells {
		cr := c.runCell(cell, ids[i], cfgs[i])
		res.Cells = append(res.Cells, cr)
		res.Tally = res.Tally.Add(cr.Tally)
	}
	if c.Census != nil {
		c.Census.AddTally(res.Tally)
	}
	return res, nil
}

// runCell executes one cell on the campaign engine.
func (c Campaign) runCell(cell CampaignCell, identity string, base inject.Config) CellResult {
	var census Census
	d := newDelivery(c.Observer, cell.Name)
	seedOf := func(run int) int64 { return engine.DeriveSeed(c.Seed, identity, run) }
	execute := func(run int) InjectionResult {
		cfg := base
		cfg.Seed = seedOf(run)
		cfg.Census = []*inject.Census{&census}
		// Each run gets its own shallow copy of every AppSpec: runs of a
		// cell execute concurrently, and the environment writes a
		// default into submitted specs (Submit's MPIStartTimeout
		// backfill), which must never race across runs.
		cfg.Apps = cloneApps(cfg.Apps)
		cfg.Trace = trace.TrialOptions(c.Trace, c.Name, cell.Name, run, c.Seed)
		if cell.Injection.Arrival != nil {
			return chaos.Trial(cfg, *cell.Injection.Arrival)
		}
		return inject.Run(cfg)
	}

	if c.Replay != nil {
		// Replay mode: only the recorded run executes, directly on the
		// caller's goroutine. The observer's ordered delivery expects
		// cells to start at run 0, so it is bypassed entirely.
		if cell.Name != c.Replay.Cell {
			return CellResult{Name: cell.Name, Identity: identity}
		}
		r := execute(c.Replay.Run)
		if c.Replay.OnResult != nil {
			c.Replay.OnResult(r)
		}
		return CellResult{
			Name:     cell.Name,
			Identity: identity,
			Runs:     1,
			Results:  []InjectionResult{r},
			Tally:    census.Tally(),
		}
	}

	trial := func(run int, finish func(int, int64, InjectionResult)) InjectionResult {
		seed := seedOf(run)
		d.started(run, seed)
		r := execute(run)
		if finish != nil {
			finish(run, seed, r)
		}
		return r
	}

	var results []InjectionResult
	if cell.FailureQuota > 0 {
		failures := 0
		engine.Until(c.Workers, cell.Runs,
			func(run int) InjectionResult { return trial(run, nil) },
			func(r InjectionResult) bool {
				// The accept callback is already sequential and in run
				// order; deliver results from here so discarded
				// overshoot trials are never observed.
				d.deliver(len(results), r.Seed, r)
				results = append(results, r)
				if r.Failed {
					failures++
				}
				return failures >= cell.FailureQuota
			})
	} else {
		results = engine.Map(c.Workers, cell.Runs,
			func(run int) InjectionResult { return trial(run, d.finished) })
	}
	return CellResult{
		Name:     cell.Name,
		Identity: identity,
		Runs:     len(results),
		Results:  results,
		Tally:    census.Tally(),
	}
}
