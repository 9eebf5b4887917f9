// Command benchmark is the repository's benchmark: four named workloads
// measured end to end with tracing off, and, as a separate traced run, a
// per-layer cost ledger measured from outside the layers. README.md in
// this directory has the metric and workload tables and the reasons
// behind them.
//
//	go run -C benchmark .                      every workload, end to end
//	go run -C benchmark . -trace 1             the traced run (per-layer)
//	go run -C benchmark . -trace 1 -ledger LEDGER.md
//	go run -C benchmark . compare A.json B.json
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	_ "reesift/internal/experiments" // registers the scenarios timed by the traced full run
	"reesift/pkg/reesift"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		rounds   = flag.Int("rounds", 0, "timed rounds per workload (default 5, unless -seconds is set)")
		seconds  = flag.Float64("seconds", 0, "repeat rounds until this many seconds have passed, instead of -rounds")
		out      = flag.String("out", "out", "directory for result.json, layers.json and spans.jsonl")
		workload = flag.String("workload", "", "run only this workload, in this process")
		traced   = flag.Int("trace", 0, "1 runs the traced (per-layer) run instead of the end-to-end run")
		ledger   = flag.String("ledger", "", "with -trace 1: write the per-layer ledger (markdown) to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-seed N] [-rounds R | -seconds S] [-trace 0|1] [-workload W] [-out DIR] [-ledger FILE]")
		fmt.Fprintln(os.Stderr, "       benchmark compare A.json B.json")
		os.Exit(2)
	}
	if *rounds == 0 && *seconds == 0 {
		*rounds = 5
	}

	// The measuring process has at most min(nproc, 4) Ps on every
	// machine, so a result says how many it used. That is the worker
	// count of the fan-out workloads; a workload run then takes one P per
	// worker, so the one-worker workloads run on a single P.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	if *workload != "" {
		o := childOpts{workload: *workload, seed: *seed, rounds: *rounds, seconds: *seconds,
			traced: *traced == 1, out: *out, size: fullSize, workers: procs}
		doc, err := runChild(o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !doc.Correct {
			os.Exit(1)
		}
		return
	}
	if err := runAll(*seed, *rounds, *seconds, *traced == 1, *out, *ledger, procs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload, so that peak_rss_mb
// belongs to one workload, and gathers the records into one result file.
func runAll(seed int64, rounds int, seconds float64, traced bool, out, ledger string, procs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	doc := runDoc{
		Schema:  docSchema,
		Traced:  traced,
		Seed:    seed,
		Machine: describeMachine(procs),
		Bounds:  make(map[string]float64),
		Notes: []string{
			"host-time figures are medians over rounds; with n=5 no tail percentile is valid",
			"the repository holds no reference measurements from real hardware: the simulated model is unvalidated and no accuracy figure is given",
			"sim_digest and the exact counts are pure functions of the seed; a simulator-only change must leave them identical",
		},
	}
	for _, def := range endToEnd {
		doc.Bounds[def.Name] = def.Bound
	}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d cpu=%q %s commit=%s\n",
		doc.Machine.NProc, doc.Machine.GOMAXPROCS, doc.Machine.CPU, doc.Machine.GoVersion, doc.Machine.Commit)

	ok := true
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-rounds", strconv.Itoa(rounds), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-out", filepath.Join(out, w.name)}
		if traced {
			args = append(args, "-trace", "1")
		}
		wd, runErr := runOne(self, args)
		if wd == nil {
			return fmt.Errorf("workload %s: %w", w.name, runErr)
		}
		ok = ok && runErr == nil && wd.Correct
		doc.Workloads = append(doc.Workloads, *wd)
	}

	name := "result.json"
	if traced {
		name = "layers.json"
		doc.Scenarios = make(map[string]float64)
		fmt.Println("scenarios at SmallScale (experiments.scenario_s.<id>, informational):")
		for _, s := range reesift.Scenarios() {
			res, err := reesift.RunScenario(s, reesift.SmallScale())
			if err != nil {
				return fmt.Errorf("scenario %s: %w", s.ID, err)
			}
			doc.Scenarios[s.ID] = res.WallClockSeconds
			fmt.Printf("  experiments.scenario_s.%-28s %10.4f s\n", s.ID, res.WallClockSeconds)
		}
	}
	if err := writeJSON(filepath.Join(out, name), &doc); err != nil {
		return err
	}
	fmt.Println("wrote", filepath.Join(out, name))
	if ledger != "" {
		if !traced {
			return fmt.Errorf("-ledger needs -trace 1")
		}
		if err := os.WriteFile(ledger, []byte(renderLedger(&doc)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", ledger)
	}
	if !ok {
		return fmt.Errorf("a workload failed verification")
	}
	return nil
}

// runOne runs one workload in a child process, echoing its report and
// returning the record from its detail line. The record is returned even
// when the child exits non-zero after printing it.
func runOne(self string, args []string) (*workloadDoc, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var wd *workloadDoc
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, detailPrefix):
			wd = new(workloadDoc)
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, detailPrefix)), wd); err != nil {
				return nil, fmt.Errorf("parsing child record: %w", err)
			}
		case strings.HasPrefix(line, "{"):
			// the contract's verdict line: the parent prints its own summary
		default:
			fmt.Println(line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if wd == nil && runErr == nil {
		runErr = fmt.Errorf("child printed no record")
	}
	return wd, runErr
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDoc(path string) (*runDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A committed baseline wraps the two runs of one machine; compare
	// reads its end-to-end half.
	var wrapped struct {
		Run *runDoc `json:"run"`
	}
	if err := json.Unmarshal(data, &wrapped); err == nil && wrapped.Run != nil {
		return wrapped.Run, nil
	}
	var d runDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, docSchema)
	}
	return &d, nil
}

func describeMachine(procs int) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: procs, CPU: "unknown", GoVersion: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's copy is not one) the commit
	// stays unknown.
	if outp, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(outp))
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
