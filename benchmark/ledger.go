package main

import (
	"fmt"
	"strings"
)

// renderLedger renders the per-layer cost ledger (LEDGER.md) from a
// traced full run. Everything in it is computed from the run's record;
// nothing is typed in by hand.
func renderLedger(d *runDoc) string {
	var b strings.Builder
	p := func(format string, args ...interface{}) { fmt.Fprintf(&b, format, args...) }

	// A probe is the same code on every workload's run, so the ledger
	// quotes the median of the runs.
	probe := func(name string) float64 {
		var xs []float64
		for _, w := range d.Workloads {
			xs = append(xs, w.Metrics[name].Value)
		}
		return median(xs)
	}

	p("# Per-layer cost ledger\n\n")
	p("Generated by `go run -C benchmark . -trace 1 -ledger LEDGER.md`. Do not edit: regenerate.\n\n")
	p("- machine: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s, seed %d\n",
		d.Machine.CPU, d.Machine.NProc, d.Machine.GOMAXPROCS, d.Machine.GoVersion, d.Machine.Commit, d.Seed)
	p("- every figure is host time measured from outside the layers: spans around the exported runner lifecycle, and probes that call one layer's public functions\n")
	p("- the trials are a quarter round of each workload run one at a time, so the figures are per trial on one worker and one P (only the fan-out probe's `nproc`-worker arm uses more), not `round_wall_s`\n")
	p("- the simulated model is unvalidated (the repository holds no reference measurements from real hardware)\n\n")

	p("## 1. Where a trial's host time goes (span self times)\n\n")
	p("Shares of the spanned round's trial time; what is left over is the benchmark's own bookkeeping between the calls. `install+run` is `Kernel.Run`, before and after submission; a chaos trial is one opaque span (its driver owns the Runner) and is booked there.\n\n")
	p("| workload | trials | µs/trial | new_runner | deploy | install+run | finish | shutdown | span overhead (base: unspanned round) |\n")
	p("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, w := range d.Workloads {
		trial := w.Info["spanned_trial_us"]
		share := func(name string) string {
			return fmt.Sprintf("%.1f µs (%.1f%%)", w.Metrics[name].Value, 100*w.Metrics[name].Value/trial)
		}
		p("| `%s` | %d | %.0f | %s | %s | %s | %s | %s | %.3f |\n", w.Name, w.Exact["trials"], trial,
			share("inject.new_runner_us"), share("inject.deploy_us"), share("inject.run_us"),
			share("inject.finish_us"), share("inject.shutdown_us"), w.Metrics["bench.span_overhead"].Value)
	}

	p("\n## 2. Inside `Kernel.Run` (probe cost × count estimates)\n\n")
	p("Spans cannot see inside `Kernel.Run`, so its time is estimated as a layer probe's cost times the count the trials report. The estimates overlap (a handoff is also an event) and the rover estimate includes the events the application itself fires, so the columns are upper bounds that need not sum to 100%%.\n\n")
	p("| workload | run wall s | events | messages | ckpt commits | event-loop floor | goroutine handoff | microcheckpoint commits | rover compute | GC CPU share |\n")
	p("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, w := range d.Workloads {
		trials := float64(w.Exact["trials"])
		run := w.Metrics["inject.run_us"].Value * trials / 1e6
		est := func(seconds float64) string { return fmt.Sprintf("%.2f s (%.0f%%)", seconds, 100*seconds/run) }
		events := w.Metrics["sim.events_fired"].Value
		msgs := w.Metrics["sim.messages_sent"].Value
		commits := w.Metrics["core.ckpt_commits"].Value
		rover := "—"
		if w.Name == "campaign-rover" {
			rover = est(trials * probe("apps.rover_ms") / 1e3)
		}
		p("| `%s` | %.2f | %.0f | %.0f | %.0f | %s | %s | %s | %s | %.1f%% |\n", w.Name, run, events, msgs, commits,
			est(events*probe("sim.event_ns")/1e9), est(msgs*probe("sim.handoff_ns")/1e9),
			est(commits*probe("core.ckpt_commit_us")/1e6), rover, 100*w.Metrics["runtime.gc_cpu_share"].Value)
	}

	p("\n## 3. The events/s cliffs\n\n")
	p("| level | host ns/event | events/s | what the level adds |\n|---|---:|---:|---|\n")
	cliff := func(level string, ns float64, adds string) {
		p("| %s | %.0f | %.3g | %s |\n", level, ns, 1e9/ns, adds)
	}
	cliff("bare event loop (`sim.event_ns`)", probe("sim.event_ns"), "Schedule / fire / Reschedule on pooled event records, two pending events")
	cliff("same, 10,000 pending timers (`sim.event_deep_ns`)", probe("sim.event_deep_ns"), "heap depth: every push and pop sifts through ~13 levels")
	cliff("process handoff (`sim.handoff_ns`)", probe("sim.handoff_ns"), "every delivered message hands the run token to a goroutine and back: two channel operations and two scheduler wakeups")
	for _, w := range d.Workloads {
		ns := 1e9 / w.Info["events_per_s"]
		cliff(fmt.Sprintf("`%s`, one worker", w.Name), ns, cliffCause(&w, ns, probe))
	}
	p("\nA reliable ARMOR-to-ARMOR message costs %.1f µs and %.1f allocations (`core.armor_msg_us`, `core.armor_msg_allocs`) against %.2f µs for the bare handoff it rides on: envelope, element dispatch, microcheckpoint and acknowledgement are the difference.\n",
		probe("core.armor_msg_us"), probe("core.armor_msg_allocs"), probe("sim.handoff_ns")/1e3)

	p("\n## 4. Layer probes\n\n")
	p("Median of the four workload runs (the probes do not depend on the workload).\n\n| metric | value | unit |\n|---|---:|---|\n")
	perWorkload := map[string]bool{
		"bench.span_overhead": true, "sim.events_fired": true, "sim.messages_sent": true, "core.ckpt_commits": true,
		"inject.new_runner_us": true, "inject.deploy_us": true, "inject.run_us": true, "inject.finish_us": true,
		"inject.shutdown_us": true, "inject.system_failures": true, "inject.recovered": true, "chaos.arrivals": true,
		"runtime.gc_cpu_share": true,
	}
	for _, def := range perLayer {
		if !perWorkload[def.Name] {
			p("| `%s` | %.4g | %s |\n", def.Name, probe(def.Name), def.Unit)
		}
	}

	p("\n## 5. Per-workload counts\n\n| workload | events fired | messages sent | ckpt commits | chaos arrivals | recovered | system failures | allocs/event | sim_digest |\n|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, w := range d.Workloads {
		p("| `%s` | %.0f | %.0f | %.0f | %.0f | %.0f | %.0f | %.2f | `%s` |\n", w.Name,
			w.Metrics["sim.events_fired"].Value, w.Metrics["sim.messages_sent"].Value, w.Metrics["core.ckpt_commits"].Value,
			w.Metrics["chaos.arrivals"].Value, w.Metrics["inject.recovered"].Value, w.Metrics["inject.system_failures"].Value,
			w.Info["allocs_per_event"], w.SimDigest)
	}

	if len(d.Scenarios) > 0 {
		p("\n## 6. Registered scenarios at SmallScale (`experiments.scenario_s.<id>`)\n\nOne sample each, at GOMAXPROCS workers; informational.\n\n| scenario | wall s |\n|---|---:|\n")
		total := 0.0
		for _, id := range sortedKeys(d.Scenarios) {
			p("| `%s` | %.3f |\n", id, d.Scenarios[id])
			total += d.Scenarios[id]
		}
		p("| all %d | %.3f |\n", len(d.Scenarios), total)
	}
	return b.String()
}

// cliffCause names, from the measured estimates, what puts a workload's
// cost per event above the bare handoff.
func cliffCause(w *workloadDoc, nsPerEvent float64, probe func(string) float64) string {
	events := w.Metrics["sim.events_fired"].Value
	perEvent := func(total float64) float64 { return total / events }
	handoff := perEvent(w.Metrics["sim.messages_sent"].Value * probe("sim.handoff_ns"))
	commit := perEvent(w.Metrics["core.ckpt_commits"].Value * probe("core.ckpt_commit_us") * 1e3)
	setup := perEvent((w.Metrics["inject.new_runner_us"].Value + w.Metrics["inject.deploy_us"].Value +
		w.Metrics["inject.finish_us"].Value + w.Metrics["inject.shutdown_us"].Value) * float64(w.Exact["trials"]) * 1e3)
	s := fmt.Sprintf("per event: handoff ≈%.0f ns, checkpoint commits ≈%.0f ns, trial build/teardown ≈%.0f ns, %.2f allocations, GC %.0f%% of CPU",
		handoff, commit, setup, w.Info["allocs_per_event"], 100*w.Metrics["runtime.gc_cpu_share"].Value)
	rest := nsPerEvent - handoff - commit - setup
	if w.Name == "campaign-rover" {
		app := perEvent(float64(w.Exact["trials"]) * probe("apps.rover_ms") * 1e6)
		s += fmt.Sprintf("; rover FFT/k-means ≈%.0f ns", app)
		rest -= app
	}
	return s + fmt.Sprintf("; the remaining ≈%.0f ns is ARMOR dispatch, element handlers, snapshots and daemon routing", rest)
}
