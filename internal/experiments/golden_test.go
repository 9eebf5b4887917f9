package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"reesift/pkg/reesift"
)

// update regenerates the golden files from the current code:
//
//	go test ./internal/experiments -run TestScenarioGolden -update
//
// Only do this for a deliberate output change (a new scenario, a
// changed table) — the goldens exist to pin every scenario's JSON and
// text output across refactors of the campaign machinery.
var update = flag.Bool("update", false, "rewrite golden scenario outputs")

// tinyRun is one scenario run at tinyScale: the result with its
// wall-clock time zeroed (the one nondeterministic field), and the text
// and JSON it renders to.
type tinyRun struct {
	res      *reesift.Result
	text, js string
	err      error
}

var (
	tinyRunsMu sync.Mutex
	tinyRuns   = map[string]func() tinyRun{}
)

// runTiny returns scenario id's tinyScale run at the given worker count.
// Each (scenario, workers) pair is simulated once per test binary and
// shared by every test that checks it, so the golden sweep, the shape
// tests and the invariance tests never re-run a scenario.
func runTiny(t *testing.T, id string, workers int) tinyRun {
	t.Helper()
	key := fmt.Sprintf("%s@%d", id, workers)
	tinyRunsMu.Lock()
	run, ok := tinyRuns[key]
	if !ok {
		run = sync.OnceValue(func() tinyRun {
			s, ok := reesift.Lookup(id)
			if !ok {
				return tinyRun{err: fmt.Errorf("scenario %q not registered", id)}
			}
			sc := tinyScale()
			sc.Workers = workers
			res, err := reesift.RunScenario(s, sc)
			if err != nil {
				return tinyRun{err: err}
			}
			res.WallClockSeconds = 0
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return tinyRun{err: err}
			}
			return tinyRun{res: res, text: res.Render(), js: string(b)}
		})
		tinyRuns[key] = run
	}
	tinyRunsMu.Unlock()
	r := run()
	if r.err != nil {
		t.Fatalf("%s at workers=%d: %v", id, workers, r.err)
	}
	return r
}

// checkShape applies scenario id's shapeChecks entry to its 1-worker
// tinyScale run.
func checkShape(t *testing.T, id string) {
	t.Helper()
	shapeChecks[id](t, runTiny(t, id, 1).res)
}

// checkWorkerInvariance fails unless scenario id renders byte-identical
// text and JSON at each of the given worker counts as at one worker.
func checkWorkerInvariance(t *testing.T, id string, workers ...int) {
	t.Helper()
	one := runTiny(t, id, 1)
	for _, w := range workers {
		got := runTiny(t, id, w)
		if got.text != one.text {
			t.Fatalf("%s: text output differs between 1 and %d workers:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", id, w, one.text, w, got.text)
		}
		if got.js != one.js {
			t.Fatalf("%s: JSON output differs between 1 and %d workers:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", id, w, one.js, w, got.js)
		}
	}
}

// TestScenarioGoldenOutput sweeps every registered scenario. Each runs
// at tinyScale with one campaign worker; the result must pass the
// scenario's shapeChecks entry — the paper claims it reproduces — and
// then match its byte-exact text and JSON goldens. A replay at eight
// workers must match the first run byte for byte. A refactor of the
// campaign/injection plumbing must not move a single byte of any
// scenario product: per-run seeds, per-cell aggregation order, and the
// per-scenario tallies (runs / injections / failures / system failures)
// are all pinned here. The runs come from runTiny, so the named shape
// and invariance tests share them instead of simulating again.
//
// Under -short the eight-worker replay is skipped; the shape check and
// the golden comparison still run. Under -update the shape check runs
// before any golden is rewritten, and a scenario that fails it writes
// nothing.
func TestScenarioGoldenOutput(t *testing.T) {
	for _, s := range reesift.Scenarios() {
		t.Run(s.ID, func(t *testing.T) {
			run := runTiny(t, s.ID, 1)
			if check := shapeChecks[s.ID]; check != nil {
				check(t, run.res)
			}
			if t.Failed() {
				return // a broken paper claim never reaches a golden
			}
			compareGolden(t, filepath.Join("testdata", "golden", s.ID+".txt"), run.text)
			compareGolden(t, filepath.Join("testdata", "golden", s.ID+".json"), run.js)
			if !testing.Short() {
				checkWorkerInvariance(t, s.ID, 8)
			}
		})
	}
}

// TestScenarioTalliesCountEveryTrial: every trial a scenario simulates is
// counted in its tally, figure and ablation harnesses included. fig9 is
// the one exception: it solves the SAN model and simulates no trial.
func TestScenarioTalliesCountEveryTrial(t *testing.T) {
	for _, s := range reesift.Scenarios() {
		if s.ID == "fig9" {
			continue
		}
		if res := runTiny(t, s.ID, 1).res; res.Runs == 0 {
			t.Errorf("%s reports 0 runs", s.ID)
		}
	}
}

// registryAliases pins every CLI alias to the scenario it resolves to.
var registryAliases = map[string]string{
	"table9":                    "table8",
	"table12":                   "table11",
	"ablation-checkpoint-store": "ablation-checkpoints",
	"extension":                 "ext-faults",
	"recovery-subsystem":        "recovery",
	"recovery-tuning":           "recovery-sweep",
	"splitbrain":                "split-brain",
	"epochs":                    "split-brain",
	"scale-1000":                "scale",
	"chaos-campaign":            "chaos",
}

// checkRegistered fails unless scenario id is registered with a title and
// a runner, and every alias registryAliases pins to it resolves to it.
func checkRegistered(t *testing.T, id string) {
	t.Helper()
	s, ok := reesift.Lookup(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	if s.Run == nil || s.Title == "" {
		t.Errorf("%s registration incomplete: %+v", id, s)
	}
	for alias, want := range registryAliases {
		if want != id {
			continue
		}
		if s, ok := reesift.Lookup(alias); !ok || s.ID != id {
			t.Errorf("alias %q resolves to %q (found=%v), want %q", alias, s.ID, ok, id)
		}
	}
}

// TestRecoveryScenarioRegistered: the recovery campaigns must be
// discoverable from the registry by id and alias.
func TestRecoveryScenarioRegistered(t *testing.T) {
	checkRegistered(t, "recovery")
	checkRegistered(t, "recovery-sweep")
}

// TestExtensionScenarioRegistered: the extension table must be
// discoverable from the registry by id and alias.
func TestExtensionScenarioRegistered(t *testing.T) {
	checkRegistered(t, "ext-faults")
}

// TestRecoveryWorkerCountInvariance: the recovery scenario is a pure
// function of the scale's seed, byte-identical at 1 and 8 workers.
func TestRecoveryWorkerCountInvariance(t *testing.T) {
	checkWorkerInvariance(t, "recovery", 8)
}

// TestExtensionWorkerCountInvariance: the extension campaign must be a
// pure function of the scale's seed at any worker count, like every
// other campaign on the engine.
func TestExtensionWorkerCountInvariance(t *testing.T) {
	checkWorkerInvariance(t, "ext-faults", 2, 8)
}

// TestScenarioRegistry pins the registry surface the CLI resolves: every
// scenario is registered with a title and its pinned aliases, and every
// golden file and shapeChecks entry names a registered scenario, so a
// renamed scenario cannot leave a stale golden or check behind.
func TestScenarioRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range reesift.Scenarios() {
		ids[s.ID] = true
		checkRegistered(t, s.ID)
		for _, a := range s.Aliases {
			if registryAliases[a] != s.ID {
				t.Errorf("scenario %q alias %q is not pinned here", s.ID, a)
			}
		}
	}
	for alias, id := range registryAliases {
		if !ids[id] {
			t.Errorf("alias %q pins unregistered scenario %q", alias, id)
		}
	}
	goldens, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range goldens {
		if id := strings.TrimSuffix(f.Name(), filepath.Ext(f.Name())); !ids[id] {
			t.Errorf("golden %s names no registered scenario", f.Name())
		}
	}
	for id := range shapeChecks {
		if !ids[id] {
			t.Errorf("shapeChecks entry %q names no registered scenario", id)
		}
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from golden %s\n--- golden ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
