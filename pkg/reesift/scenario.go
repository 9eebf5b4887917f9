package reesift

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"reesift/internal/trace"
)

// Scenario is one registered experiment workload. Workload packages
// register their scenarios from an init function; consumers discover
// them through Scenarios and Lookup.
type Scenario struct {
	// ID is the primary registry key ("table4", "fig9",
	// "ablation-watchdog", ...).
	ID string
	// Title is the human-readable description shown by -list.
	Title string
	// Aliases are additional ids resolving to this scenario (the paired
	// tables: "table9" -> "table8").
	Aliases []string
	// Run executes the scenario at the given scale and returns its
	// structured result. Run may return a partial Result alongside an
	// error.
	//
	// Tally attribution: RunScenario fills the Result's run/injection
	// counts from the census it threads in via Scale.Census, so Run
	// must pass sc.Census to the campaigns it builds (Campaign.Census,
	// Sweep.Census) and to one-off runs (Injection.Census). Work that
	// bypasses the census still executes but reports zero in the
	// scenario's totals. Every registered scenario counts all of its
	// trials, the figure and ablation harnesses included; the only
	// uncounted work is the standalone no-SIFT baselines of table3 and
	// table11, which simulate the applications without the SIFT
	// environment.
	Run func(Scale) (*Result, error)
}

var registry = struct {
	mu    sync.RWMutex
	order []string
	byID  map[string]Scenario
	alias map[string]string
}{
	byID:  make(map[string]Scenario),
	alias: make(map[string]string),
}

// Register adds a scenario to the global registry. It panics on an empty
// id, a nil Run, or an id/alias collision — registration happens at init
// time, where a loud failure beats a silently shadowed experiment.
func Register(s Scenario) {
	if s.ID == "" {
		panic("reesift: Register: empty scenario ID")
	}
	if s.Run == nil {
		panic(fmt.Sprintf("reesift: Register(%q): nil Run", s.ID))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byID[s.ID]; dup {
		panic(fmt.Sprintf("reesift: Register(%q): duplicate scenario ID", s.ID))
	}
	if _, dup := registry.alias[s.ID]; dup {
		panic(fmt.Sprintf("reesift: Register(%q): ID collides with a registered alias", s.ID))
	}
	for _, a := range s.Aliases {
		if _, dup := registry.byID[a]; dup {
			panic(fmt.Sprintf("reesift: Register(%q): alias %q collides with a registered scenario", s.ID, a))
		}
		if _, dup := registry.alias[a]; dup {
			panic(fmt.Sprintf("reesift: Register(%q): duplicate alias %q", s.ID, a))
		}
	}
	registry.byID[s.ID] = s
	registry.order = append(registry.order, s.ID)
	for _, a := range s.Aliases {
		registry.alias[a] = s.ID
	}
}

// Scenarios returns every registered scenario in registration order.
func Scenarios() []Scenario {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Scenario, 0, len(registry.order))
	for _, id := range registry.order {
		out = append(out, registry.byID[id])
	}
	return out
}

// Lookup resolves an id or alias to its scenario.
func Lookup(id string) (Scenario, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	if canonical, ok := registry.alias[id]; ok {
		id = canonical
	}
	s, ok := registry.byID[id]
	return s, ok
}

// KnownIDs returns every id and alias the registry resolves, sorted —
// for "unknown experiment" error messages.
func KnownIDs() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	ids := make([]string, 0, len(registry.byID)+len(registry.alias))
	for id := range registry.byID {
		ids = append(ids, id)
	}
	for a := range registry.alias {
		ids = append(ids, a)
	}
	sort.Strings(ids)
	return ids
}

// RunScenario executes a scenario and completes its Result with the
// scenario id, title, wall-clock time, and the injection tallies
// accumulated during the run (runs, injections, failures, system
// failures). A partial Result returned alongside an error is completed
// the same way.
//
// Tallies are attributed through a per-scenario census threaded down to
// every campaign the scenario runs (Scale.Census), so concurrently
// running scenarios never see each other's work in their totals. A
// census the caller installed in sc beforehand still receives the
// scenario's roll-up.
func RunScenario(s Scenario, sc Scale) (*Result, error) {
	census := new(Census)
	if outer := sc.Census; outer != nil {
		defer func() { outer.AddTally(census.Tally()) }()
	}
	sc.Census = census
	var bundleMu sync.Mutex
	var bundles []string
	if sc.Trace != nil {
		// Stamp a copy: the scenario identity and the marshaled Scale
		// (Census/Trace/Replay excluded) make every breach bundle
		// self-contained, and the collector feeds Result.BreachBundles.
		// Bundle paths arrive from worker goroutines, hence the lock.
		// Workers is zeroed in the recorded configuration: results are
		// worker-invariant by construction, so bundles stay
		// byte-identical at any pool size (replay runs sequentially
		// regardless).
		mc := sc
		mc.Workers = 0
		meta, _ := json.Marshal(mc) // nil on error: the bundle then carries no configuration
		sc.Trace = trace.Stamp(sc.Trace, s.ID, meta, func(path string) {
			bundleMu.Lock()
			bundles = append(bundles, path)
			bundleMu.Unlock()
		})
	}
	start := time.Now()
	res, err := s.Run(sc)
	if res == nil {
		res = &Result{}
	}
	bundleMu.Lock()
	if len(bundles) > 0 {
		sort.Strings(bundles)
		res.BreachBundles = bundles
	}
	bundleMu.Unlock()
	tally := census.Tally()
	res.Scenario = s.ID
	if res.Title == "" {
		res.Title = s.Title
	}
	res.Runs = int(tally.Runs)
	res.Injections = int(tally.Injections)
	res.Failures = int(tally.Failures)
	res.SystemFailures = int(tally.SystemFailures)
	res.WallClockSeconds = time.Since(start).Seconds()
	return res, err
}
