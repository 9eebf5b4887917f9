// Command benchgate compares two BENCH.json artifacts — the `go test
// -json -bench` event streams CI uploads — and fails when a tracked
// lower-is-better metric regressed beyond a tolerance. It is the CI
// gate that keeps the recovery path (s/recovery), the chaos subsystem's
// simulation throughput (s/sim-day), the split-brain reconciliation
// campaign (s/split-brain), the ARMOR/SIFT message path (allocs/envelope)
// and the kernel hot path's allocation behaviour (allocs/op, B/op from
// -benchmem) from silently getting worse. The alloc gate is strict at
// zero by construction: a 0 allocs/op baseline allows only 0, so a single
// allocation creeping back into the steady-state event loop fails the
// build regardless of tolerance.
//
// Usage:
//
//	benchgate -old prev/BENCH.json -new BENCH.json \
//	          [-metrics s/recovery,s/sim-day,s/split-brain,allocs/envelope,allocs/op,B/op] \
//	          [-max-regress 0.20]
//
// Both artifacts are parsed for benchmark result lines; for every
// tracked metric present in both, the gate fails (exit 1) if
// new > old * (1 + max-regress). Metrics are lower-is-better. A missing
// or unreadable -old file is not an error — the first run of a fresh
// branch has no predecessor — the gate reports it and passes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "", "previous BENCH.json (missing file skips the gate)")
	newPath := fs.String("new", "", "fresh BENCH.json to gate")
	metrics := fs.String("metrics", "s/recovery,s/sim-day,s/split-brain,allocs/envelope,allocs/op,B/op", "comma-separated units to track")
	maxRegress := fs.Float64("max-regress", 0.20, "allowed fractional slowdown before failing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" {
		fmt.Fprintln(stderr, "benchgate: -new is required")
		return 2
	}
	tracked := make(map[string]bool)
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			tracked[m] = true
		}
	}

	fresh, err := parseFile(*newPath, tracked)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	prev, err := parseFile(*oldPath, tracked)
	if err != nil {
		// No baseline yet: nothing to compare against, which is the
		// normal state of a first run.
		fmt.Fprintf(stdout, "benchgate: no usable baseline (%v); skipping gate\n", err)
		return 0
	}

	keys := make([]string, 0, len(prev))
	for key := range prev {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var regressed []string
	for _, key := range keys {
		oldVal := prev[key]
		newVal, ok := fresh[key]
		if !ok {
			fmt.Fprintf(stdout, "benchgate: %s: present in baseline only; skipping\n", key)
			continue
		}
		limit := oldVal * (1 + *maxRegress)
		verdict := "ok"
		if newVal > limit {
			verdict = "REGRESSED"
			regressed = append(regressed,
				fmt.Sprintf("%s: baseline %.4g, current %.4g (limit %.4g, +%.1f%%)",
					key, oldVal, newVal, limit, (newVal/oldVal-1)*100))
		}
		fmt.Fprintf(stdout, "benchgate: %s: %.4g -> %.4g (limit %.4g): %s\n", key, oldVal, newVal, limit, verdict)
	}
	if len(regressed) > 0 {
		fmt.Fprintf(stderr, "benchgate: %d metric(s) regressed beyond %.0f%% tolerance:\n", len(regressed), *maxRegress*100)
		for _, r := range regressed {
			fmt.Fprintf(stderr, "benchgate:   %s\n", r)
		}
		return 1
	}
	return 0
}

// parseFile reads a `go test -json` stream and returns the tracked
// metrics keyed "Benchmark/unit", benchmark names stripped of the
// -GOMAXPROCS suffix so runs on different machines still compare.
func parseFile(path string, tracked map[string]bool) (map[string]float64, error) {
	if path == "" {
		return nil, fmt.Errorf("no baseline path given")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		var ev struct {
			Action string `json:"Action"`
			Output string `json:"Output"`
		}
		// A `go test -json` event carries the result line in Output;
		// anything that is not such an event (plain `go test -bench`
		// output) is treated as the result line itself.
		line := scanner.Text()
		if err := json.Unmarshal(scanner.Bytes(), &ev); err == nil {
			line = ev.Output
		}
		name, vals := parseBenchLine(line)
		if name == "" {
			continue
		}
		for unit, v := range vals {
			if tracked[unit] {
				out[name+"/"+unit] = v
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no tracked metrics found", path)
	}
	return out, nil
}

// parseBenchLine parses a benchmark result line
// ("BenchmarkX-8  1  123 ns/op  0.45 s/recovery") into the benchmark
// name (GOMAXPROCS suffix stripped) and its value-unit pairs.
func parseBenchLine(line string) (string, map[string]float64) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	vals := make(map[string]float64)
	// fields[1] is the iteration count; the rest alternate value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil
		}
		vals[fields[i+1]] = v
	}
	return name, vals
}
