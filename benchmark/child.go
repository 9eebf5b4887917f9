package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"reesift/internal/campaign"
)

// childOpts is what one workload run needs to know.
type childOpts struct {
	workload string
	seed     int64
	// rounds is the number of timed rounds; when zero, rounds repeat
	// until seconds have passed (at least one).
	rounds  int
	seconds float64
	traced  bool
	out     string // directory for spans.jsonl; "" writes none
	size    sizing
	workers int
}

// setupRepeats is how many times set-up is timed, after one cold
// repetition that is not; setup_s is their median.
const setupRepeats = 5

// verdict is the last line of a workload run's standard output: the
// benchmark contract's result object.
type verdict struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailPrefix marks the line on which a workload run hands its full
// record to the parent process.
const detailPrefix = "detail: "

func (d *workloadDoc) verdict() verdict {
	v := verdict{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: make(map[string]metricJSON)}
	for name, s := range d.Metrics {
		v.Metrics[name] = metricJSON{Value: s.Value, Unit: s.Unit}
	}
	return v
}

// runChild runs one workload and prints its report: the metrics by name
// with their units, the detail line, and the verdict as the last line.
func runChild(o childOpts, stdout io.Writer) (*workloadDoc, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var doc *workloadDoc
	var err error
	if o.traced {
		doc, err = tracedRun(w, o)
	} else {
		doc, err = timedRun(w, o)
	}
	if err != nil {
		return nil, err
	}
	printWorkload(stdout, doc, o.traced)
	detail, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	last, err := json.Marshal(doc.verdict())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", detailPrefix, detail, last)
	return doc, nil
}

func roundSeed(w workload, seed int64, r int) int64 {
	return campaign.DeriveSeed(seed, w.name+"/round", r)
}

// tally folds a round's trials into the counts the report needs.
type tally struct {
	trials, errors, unrecovered, sysFailures, recovered, arrivals int
	events                                                        uint64
	simTime                                                       time.Duration
}

func tallyOf(trials []trialOut) tally {
	var t tally
	t.add(trials)
	return t
}

func (t *tally) add(trials []trialOut) {
	for _, o := range trials {
		t.trials++
		t.events += o.events
		t.simTime += o.simTime
		t.arrivals += o.arrivals
		if o.err != nil {
			t.errors++
		}
		if o.unrecovered {
			t.unrecovered++
		}
		if o.sysFailure {
			t.sysFailures++
		}
		if o.recovered {
			t.recovered++
		}
	}
}

func firstError(trials []trialOut) error {
	for _, t := range trials {
		if t.err != nil {
			return t.err
		}
	}
	return nil
}

// timedRun is the untraced run: set-up, timed rounds, verify.
func timedRun(w workload, o childOpts) (*workloadDoc, error) {
	workers := 1
	if w.fanOut {
		workers = o.workers
	}
	// A run gets one P per worker. On a one-worker workload a spare P
	// only takes the kernel's goroutine handoffs across threads, and how
	// long that wake-up takes belongs to the host's other tenants: on a
	// shared 2-vCPU machine it moved round_wall_s by 30% between runs of
	// one binary.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	// Set-up: build the inputs, then an untimed eighth-size warm-up
	// round on its own seed. Repeated, so that setup_s is a median; the
	// first repetition runs in a cold process (half as long again on
	// campaign-rover) and is left out, so it cannot widen the quartiles.
	var cells []cell
	var setup []float64
	for k := 0; k <= setupRepeats; k++ {
		t0 := time.Now()
		cells = w.cells(o.size)
		warm := runRound(w, w.cells(o.size.part(8)), campaign.DeriveSeed(o.seed, w.name+"/warmup", k), workers)
		if err := firstError(warm); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		if k > 0 {
			setup = append(setup, time.Since(t0).Seconds())
		}
	}

	var costs []cost
	var round0 []trialOut
	var all tally
	start := time.Now()
	for r := 0; ; r++ {
		if o.rounds > 0 && r >= o.rounds {
			break
		}
		if o.rounds == 0 && r > 0 && time.Since(start).Seconds() >= o.seconds {
			break
		}
		var trials []trialOut
		costs = append(costs, measure(func() { trials = runRound(w, cells, roundSeed(w, o.seed, r), workers) }))
		if r == 0 {
			round0 = trials
		}
		all.add(trials)
	}

	verified, mismatched := verifyRound(w, cells, roundSeed(w, o.seed, 0), round0)

	doc := &workloadDoc{
		Name:      w.name,
		Attempted: all.trials + verified,
		Failed:    all.errors + mismatched,
		Rounds:    len(costs),
		Workers:   workers,
		SimDigest: foldDigests(round0),
		Exact:     exactCounts(tallyOf(round0)),
		Metrics:   make(map[string]sample),
		Info:      make(map[string]float64),
	}
	doc.Correct = doc.Failed == 0
	pick := func(f func(cost) float64) []float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		return xs
	}
	doc.Metrics["setup_s"] = summarize("s", setup)
	doc.Metrics["round_wall_s"] = summarize("s", pick(func(c cost) float64 { return c.wall }))
	doc.Metrics["round_cpu_s"] = summarize("s", pick(func(c cost) float64 { return c.cpu }))
	doc.Metrics["round_allocs"] = summarize("count", pick(func(c cost) float64 { return c.allocs }))
	doc.Metrics["round_alloc_mb"] = summarize("MB", pick(func(c cost) float64 { return c.allocMB }))
	doc.Metrics["peak_rss_mb"] = summarize("MB", []float64{peakRSSMB()})

	var wall float64
	for _, c := range costs {
		wall += c.wall
	}
	doc.Info["trials_per_s"] = float64(all.trials) / wall
	doc.Info["events_per_s"] = float64(all.events) / wall
	doc.Info["sim_s_per_wall_s"] = all.simTime.Seconds() / wall
	doc.Info["unrecovered_share"] = float64(all.unrecovered) / float64(all.trials)
	return doc, nil
}

// exactCounts are the simulated counts of round 0, which repeat exactly
// for a seed.
func exactCounts(t tally) map[string]uint64 {
	return map[string]uint64{
		"trials":                 uint64(t.trials),
		"sim.events_fired":       t.events,
		"sim.time_ns":            uint64(t.simTime),
		"inject.system_failures": uint64(t.sysFailures),
		"inject.recovered":       uint64(t.recovered),
		"chaos.arrivals":         uint64(t.arrivals),
		"unrecovered":            uint64(t.unrecovered),
	}
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedRun is the separate run that produces the per-layer numbers: the
// phased trials of a quarter round (with and without spans), the counts
// read after them, and the layer probes.
func tracedRun(w workload, o childOpts) (*workloadDoc, error) {
	cells := w.cells(o.size.part(4))
	seed := roundSeed(w, o.seed, 0)
	// The phased trials and the probes are one-worker work, so they get
	// one P, as in timedRun; the fan-out probe sets its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Untimed warm-up, then the round without spans, then with.
	if _, _, err := phasedRound(nil, w, cells, campaign.DeriveSeed(o.seed, w.name+"/warmup", 0)); err != nil {
		return nil, err
	}
	var plain []trialOut
	var counts layerCounts
	var err error
	gc0, total0 := gcCPU()
	bare := measure(func() { plain, counts, err = phasedRound(nil, w, cells, seed) })
	gc1, total1 := gcCPU()
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	var spanned []trialOut
	withSpans := measure(func() { spanned, _, err = phasedRound(log, w, cells, seed) })
	if err != nil {
		return nil, err
	}

	// The traced run checks itself too: the spanned round must replay the
	// plain one trial for trial.
	mismatched := 0
	for i := range plain {
		if plain[i].digest != spanned[i].digest {
			mismatched++
		}
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		if err := log.write(filepath.Join(o.out, "spans.jsonl")); err != nil {
			return nil, err
		}
	}

	vals, err := runProbes(o.size, o.workers)
	if err != nil {
		return nil, err
	}
	t := tallyOf(plain)
	self := log.selfTimes()
	perTrialUS := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return float64(d.Microseconds()) / float64(t.trials)
	}
	vals["bench.span_overhead"] = withSpans.wall / bare.wall // base: the same round without spans
	vals["inject.new_runner_us"] = perTrialUS(spanNewRunner)
	vals["inject.deploy_us"] = perTrialUS(spanDeploy)
	// A chaos trial is one opaque span; all of it counts as run time.
	vals["inject.run_us"] = perTrialUS(spanRun, spanInstall, spanChaos)
	vals["inject.finish_us"] = perTrialUS(spanFinish)
	vals["inject.shutdown_us"] = perTrialUS(spanShutdown)
	vals["sim.events_fired"] = float64(t.events)
	vals["sim.messages_sent"] = float64(counts.messages)
	vals["core.ckpt_commits"] = float64(counts.ckptCommits)
	vals["inject.system_failures"] = float64(t.sysFailures)
	vals["inject.recovered"] = float64(t.recovered)
	vals["chaos.arrivals"] = float64(t.arrivals)
	vals["runtime.gc_cpu_share"] = (gc1 - gc0) / (total1 - total0)

	doc := &workloadDoc{
		Name:      w.name,
		Attempted: 2 * t.trials,
		Failed:    mismatched,
		Correct:   mismatched == 0,
		Rounds:    1,
		Workers:   1,
		SimDigest: foldDigests(plain),
		Exact:     exactCounts(t),
		Metrics:   make(map[string]sample),
		Info: map[string]float64{
			"serial_trial_us": bare.wall * 1e6 / float64(t.trials),
			// The spanned round's own trial time: the base the span self
			// times are shares of.
			"spanned_trial_us":  withSpans.wall * 1e6 / float64(t.trials),
			"serial_round_s":    bare.wall,
			"events_per_s":      float64(t.events) / bare.wall,
			"allocs_per_event":  bare.allocs / float64(t.events),
			"unrecovered_share": float64(t.unrecovered) / float64(t.trials),
		},
	}
	for _, def := range perLayer {
		v, ok := vals[def.Name]
		if !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.Name)
		}
		doc.Metrics[def.Name] = summarize(def.Unit, []float64{v})
	}
	return doc, nil
}

// printWorkload prints every metric of a run by name, with its unit.
func printWorkload(out io.Writer, d *workloadDoc, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "workload %s: rounds=%d workers=%d\n", d.Name, d.Rounds, d.Workers)
	for _, def := range defs {
		s := d.Metrics[def.Name]
		if s.N > 1 {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s median of n=%d  [min %.6g  q1 %.6g  q3 %.6g  max %.6g]\n",
				def.Name, s.Value, s.Unit, s.N, s.Min, s.Q1, s.Q3, s.Max)
		} else {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s\n", def.Name, s.Value, s.Unit)
		}
	}
	share := 0.0
	if d.Attempted > 0 {
		share = float64(d.Failed) / float64(d.Attempted)
	}
	fmt.Fprintf(out, "  %-28s %14.6g %-6s %d failed of %d attempted (verify trials included)\n", "failed_share", share, "ratio", d.Failed, d.Attempted)
	fmt.Fprintf(out, "  sim_digest %s", d.SimDigest)
	for _, k := range sortedKeys(d.Exact) {
		fmt.Fprintf(out, "  %s=%d", k, d.Exact[k])
	}
	fmt.Fprintln(out, "  (round 0; exact for a seed)")
	fmt.Fprint(out, "  not gated:")
	for _, k := range sortedKeys(d.Info) {
		fmt.Fprintf(out, "  %s=%.6g", k, d.Info[k])
	}
	fmt.Fprintln(out)
	if !traced {
		fmt.Fprintf(out, "  n=%d rounds: medians and quartiles only, no tail percentile is valid at this n\n", d.Rounds)
	}
}
