package main

import (
	"math"
	"sort"
)

// metricDef is one named metric of the benchmark. The tables below are
// the source of truth for names, units and bounds; BENCHMARK.json at the
// repository root mirrors them (bench_test.go checks the two agree).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd lists what a campaign author pays for a fixed piece of work.
// failed_share is deliberately not here: it is 0 on every workload (see
// README, "What counts as a failed trial"), and the benchmark contract
// takes failures from the attempted/failed counts of each run instead.
//
// The three time bounds are the widest the contract allows, not the 10%
// the issue proposed: on the shared 2-vCPU sandbox the same binary on the
// same seed ran 25% slower twenty minutes later (README, "How the bounds
// were set"). The allocation counts repeat to 0.2% and are the precise
// gates.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_wall_s", "s", "lower", 0.25},
	{"round_cpu_s", "s", "lower", 0.25},
	{"round_allocs", "count", "lower", 0.02},
	{"round_alloc_mb", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the single-layer figures of a traced run, in ledger
// order. Layer prefixes are this repository's package names.
var perLayer = []metricDef{
	{Name: "bench.span_overhead", Unit: "ratio", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.handoff_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.spawn_reap_us", Unit: "us", Better: "lower"},
	{Name: "sim.events_fired", Unit: "count", Better: "lower"},
	{Name: "sim.messages_sent", Unit: "count", Better: "lower"},
	{Name: "core.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ckpt_commit_us", Unit: "us", Better: "lower"},
	{Name: "core.ckpt_load_us", Unit: "us", Better: "lower"},
	{Name: "core.armor_msg_us", Unit: "us", Better: "lower"},
	{Name: "core.armor_msg_allocs", Unit: "count", Better: "lower"},
	{Name: "core.ckpt_commits", Unit: "count", Better: "lower"},
	{Name: "sift.idle_us_per_sim_s.4", Unit: "us", Better: "lower"},
	{Name: "sift.idle_us_per_sim_s.400", Unit: "us", Better: "lower"},
	{Name: "sift.beat_us", Unit: "us", Better: "lower"},
	{Name: "sift.install_us.4", Unit: "us", Better: "lower"},
	{Name: "sift.install_us.400", Unit: "us", Better: "lower"},
	{Name: "inject.new_runner_us", Unit: "us", Better: "lower"},
	{Name: "inject.deploy_us", Unit: "us", Better: "lower"},
	{Name: "inject.run_us", Unit: "us", Better: "lower"},
	{Name: "inject.finish_us", Unit: "us", Better: "lower"},
	{Name: "inject.shutdown_us", Unit: "us", Better: "lower"},
	{Name: "inject.system_failures", Unit: "count", Better: "lower"},
	{Name: "inject.recovered", Unit: "count", Better: "higher"},
	{Name: "campaign.map_overhead_us.1", Unit: "us", Better: "lower"},
	{Name: "campaign.map_overhead_us.n", Unit: "us", Better: "lower"},
	{Name: "campaign.fanout_speedup", Unit: "ratio", Better: "higher"},
	{Name: "campaign.fanout_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "campaign.until_waste_share", Unit: "ratio", Better: "lower"},
	{Name: "chaos.arrivals", Unit: "count", Better: "higher"},
	{Name: "apps.rover_ms", Unit: "ms", Better: "lower"},
	{Name: "apps.otis_ms", Unit: "ms", Better: "lower"},
	{Name: "fft.fft2d_us", Unit: "us", Better: "lower"},
	{Name: "fft.directional_filter_us", Unit: "us", Better: "lower"},
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.recorder_overhead", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
}

// sample is one metric of one workload: the median over its samples plus
// the order statistics a reader needs to judge the spread.
type sample struct {
	Value   float64   `json:"value"` // median
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize folds raw samples into a sample. Quartiles use the same
// exclusive method as Python's statistics.quantiles(n=4), which is what
// the acceptance procedure in README.md computes spreads with; with fewer
// than two samples the quartiles collapse onto the value.
func summarize(unit string, xs []float64) sample {
	s := sample{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Value = quantile(sorted, 0.5)
	s.Q1, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.75)
	return s
}

func median(xs []float64) float64 { return summarize("", xs).Value }

// quantile is the exclusive-method quantile of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	pos = math.Max(0, math.Min(pos, float64(n-1)))
	lo := int(math.Floor(pos))
	if lo == n-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// workloadDoc is one workload's record in a result file.
type workloadDoc struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Rounds    int    `json:"rounds"`
	Workers   int    `json:"workers"`
	// Exact simulated results of round 0. Simulator-only changes must
	// leave every one of them identical; `compare` flags any that move.
	SimDigest string            `json:"sim_digest"`
	Exact     map[string]uint64 `json:"exact"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one, keyed by name.
	Metrics map[string]sample `json:"metrics"`
	// Info carries the ungated reader conveniences (trials_per_s,
	// events_per_s, sim_s_per_wall_s, unrecovered_share).
	Info map[string]float64 `json:"info,omitempty"`
}

// runDoc is a whole result file: one benchmark invocation over every
// workload, with the machine it ran on.
type runDoc struct {
	Schema    string             `json:"schema"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Machine   machine            `json:"machine"`
	Bounds    map[string]float64 `json:"bounds"`
	Workloads []workloadDoc      `json:"workloads"`
	// Scenarios is the wall seconds of every registered scenario at
	// SmallScale (traced full runs only; ROADMAP item 1b).
	Scenarios map[string]float64 `json:"scenarios,omitempty"`
	Notes     []string           `json:"notes"`
}

const docSchema = "reesift-bench/1"

// machine describes where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func (d *runDoc) workload(name string) *workloadDoc {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i]
		}
	}
	return nil
}
