package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke tests run every workload at about 1/50 size with one timed
// round. Run them with `go test -C benchmark ./...`: the benchmark is a
// module of its own, so the root module's `go test ./...` does not reach
// it.

func smokeOpts(workload string, traced bool, out string) childOpts {
	return childOpts{workload: workload, seed: 1, rounds: 1, traced: traced, out: out,
		size: smokeSize, workers: 2}
}

// manifest is BENCHMARK.json as the benchmark contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCode pins BENCHMARK.json to the tables in defs.go
// and workloads.go, and to the contract's limits on names and units.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, def)
			}
			if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) || seen[def.Name] {
				t.Errorf("%s: %q (%q) is outside the contract's limits or repeated", kind, def.Name, def.Unit)
			}
			seen[def.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s: %s bound: BENCHMARK.json %v, the code %v", kind, def.Name, g.Bound, def.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must carry no bound", kind, def.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

// TestSmoke runs every workload untraced and traced and checks that each
// run emits exactly the metrics BENCHMARK.json names, once, with their
// units, both in its record and on its last line.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, traced := range []bool{false, true} {
		want := m.EndToEnd
		if traced {
			want = m.PerLayer
		}
		for _, w := range workloads {
			var out bytes.Buffer
			dir := t.TempDir()
			doc, err := runChild(smokeOpts(w.name, traced, dir), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, doc.Correct, doc.Failed, doc.Attempted)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last verdict
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s: last line is not the verdict object: %v", w.name, err)
			}
			if len(last.Metrics) != len(want) || len(doc.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the last line, %d in the record, want %d", w.name, traced, len(last.Metrics), len(doc.Metrics), len(want))
			}
			for _, def := range want {
				got, ok := last.Metrics[def.Name]
				if !ok || got.Unit != def.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (present=%v), want unit %s", w.name, traced, def.Name, got, ok, def.Unit)
				}
				if n := strings.Count(out.String(), "\n  "+def.Name+" "); n != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times", w.name, traced, def.Name, n)
				}
			}
			if traced {
				checkSpans(t, filepath.Join(dir, "spans.jsonl"))
			} else {
				for _, def := range want {
					if last.Metrics[def.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, def.Name, last.Metrics[def.Name].Value)
					}
				}
			}
		}
	}
}

// checkSpans reads a span file back: every child lies inside its parent
// and no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log := &spanLog{}
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		log.spans = append(log.spans, s)
	}
	if len(log.spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range log.spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("span %d: id %d, [%d, %d]", i, s.ID, s.Start, s.End)
		}
		if s.Parent >= 0 {
			p := log.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Trial != p.Trial {
				t.Errorf("span %d (%s) [%d, %d] trial %d lies outside its parent %s [%d, %d] trial %d",
					i, s.Name, s.Start, s.End, s.Trial, p.Name, p.Start, p.End, p.Trial)
			}
		}
	}
	for name, d := range log.selfTimes() {
		if d < 0 {
			t.Errorf("self time of %s is %v", name, d)
		}
	}
}

// TestWorkerCountAndPathsAgree checks the determinism the benchmark
// leans on: a round has the same trial digests on one worker and on
// several, and the phased (span) path through the internal runner
// lifecycle replays the public-API path trial for trial.
func TestWorkerCountAndPathsAgree(t *testing.T) {
	for _, w := range workloads {
		cells := w.cells(smokeSize)
		seed := roundSeed(w, 7, 0)
		serial := runRound(w, cells, seed, 1)
		if err := firstError(serial); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if w.fanOut {
			if got, want := foldDigests(runRound(w, cells, seed, 3)), foldDigests(serial); got != want {
				t.Errorf("%s: digest %s on 3 workers, %s on 1", w.name, got, want)
			}
		}
		phased, _, err := phasedRound(newSpanLog(), w, cells, seed)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(phased) != len(serial) {
			t.Fatalf("%s: %d phased trials, %d public", w.name, len(phased), len(serial))
		}
		for i := range serial {
			if phased[i].digest != serial[i].digest {
				t.Errorf("%s: trial %d: phased digest %016x, public %016x", w.name, i, phased[i].digest, serial[i].digest)
				break
			}
		}
		if other := runRound(w, cells, roundSeed(w, 8, 0), 1); foldDigests(other) == foldDigests(serial) {
			t.Errorf("%s: the seed does not change the round", w.name)
		}
	}
}

// TestVerifyCatchesPerturbedDigest flips one bit of a recorded digest
// and expects the verify step to fail exactly that trial.
func TestVerifyCatchesPerturbedDigest(t *testing.T) {
	w, _ := lookupWorkload("campaign-recovery")
	cells := w.cells(smokeSize)
	seed := roundSeed(w, 1, 0)
	recorded := runRound(w, cells, seed, 2)
	if n, failed := verifyRound(w, cells, seed, recorded); n == 0 || failed != 0 {
		t.Fatalf("clean verify: %d attempted, %d failed", n, failed)
	}
	// The first run of the second cell is inside the replayed quarter.
	recorded[cells[0].runs].digest ^= 1
	if _, failed := verifyRound(w, cells, seed, recorded); failed != 1 {
		t.Fatalf("perturbed verify: %d failed, want 1", failed)
	}
}

func TestJudge(t *testing.T) {
	s := func(xs ...float64) sample { return summarize("s", xs) }
	for _, c := range []struct {
		name   string
		a, b   sample
		better string
		bound  float64
		want   string
	}{
		{"within bound", s(10, 10.1, 10.2), s(10.3, 10.4, 10.5), "lower", 0.10, verdictSame},
		{"slower beyond bound", s(10, 10.1, 10.2), s(12, 12.1, 12.2), "lower", 0.10, verdictWorse},
		{"faster beyond bound", s(10, 10.1, 10.2), s(8, 8.1, 8.2), "lower", 0.10, verdictBetter},
		{"noisy and overlapping", s(8, 10, 12), s(9, 11.5, 13), "lower", 0.10, verdictUnresolved},
		{"noisy but every run better", s(10, 12, 14), s(5, 6, 7), "lower", 0.10, verdictBetter},
		{"higher is better", s(1.5, 1.6, 1.7), s(1.0, 1.1, 1.2), "higher", 0.10, verdictWorse},
	} {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := summarize("", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Value != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", s.Q1, s.Value, s.Q3)
	}
}
