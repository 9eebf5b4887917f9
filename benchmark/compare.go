package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one end-to-end metric on one workload, B against A.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares B's samples with A's for a metric whose regression bound
// is a share of A's median.
//
//   - When the run-to-run spread (the wider interquartile range of the
//     two, as a share of A's median) is within the bound, the medians
//     decide: beyond the bound either way is worse or better, inside it
//     is same.
//   - When the spread exceeds the bound the medians cannot be trusted:
//     the verdict is better or worse only if every sample of B lies on
//     that side of every sample of A, and unresolved while they overlap.
func judge(a, b sample, better string, bound float64) (verdict string, delta, spread float64) {
	// Work on costs: a higher-is-better metric is negated, so that in
	// what follows larger always means worse.
	span := func(s sample) (least, most float64) { return s.Min, s.Max }
	sign := 1.0
	if better == "higher" {
		sign = -1
		span = func(s sample) (least, most float64) { return -s.Max, -s.Min }
	}
	aLeast, aMost := span(a)
	bLeast, bMost := span(b)
	// delta > 0 means B is worse; its base is A's median.
	delta = sign * (b.Value - a.Value) / math.Abs(a.Value)
	spread = math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / math.Abs(a.Value)
	if spread <= bound {
		switch {
		case delta > bound:
			return verdictWorse, delta, spread
		case delta < -bound:
			return verdictBetter, delta, spread
		}
		return verdictSame, delta, spread
	}
	switch {
	case bMost < aLeast:
		return verdictBetter, delta, spread
	case bLeast > aMost && delta > bound:
		return verdictWorse, delta, spread
	}
	return verdictUnresolved, delta, spread
}

// compareMain is the `compare A.json B.json` subcommand. It prints one
// row per end-to-end metric and workload and diffs the exact simulated
// results. The exit code is 1 when any row is worse or unresolved; a
// changed simulated result is flagged but does not fail the comparison,
// because a change may alter behaviour on purpose.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(out, "usage: benchmark compare A.json B.json")
		return 2
	}
	var docs [2]*runDoc
	for i, path := range args {
		d, err := readDoc(path)
		if err == nil && d.Traced {
			err = fmt.Errorf("%s is a traced run; compare reads end-to-end runs", path)
		}
		if err != nil {
			fmt.Fprintln(out, "compare:", err)
			return 2
		}
		docs[i] = d
	}
	a, b := docs[0], docs[1]

	fmt.Fprintf(out, "A: %s  seed=%d commit=%s cpu=%q GOMAXPROCS=%d\n", args[0], a.Seed, a.Machine.Commit, a.Machine.CPU, a.Machine.GOMAXPROCS)
	fmt.Fprintf(out, "B: %s  seed=%d commit=%s cpu=%q GOMAXPROCS=%d\n", args[1], b.Seed, b.Machine.Commit, b.Machine.CPU, b.Machine.GOMAXPROCS)
	fmt.Fprintln(out, "delta and spread are shares of A's median; delta > 0 means B is worse; bounds are A's")
	fmt.Fprintf(out, "%-18s %-15s %-6s %12s %25s %12s %25s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "delta", "spread", "bound", "verdict")

	counts := make(map[string]int)
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(out, "%-18s missing from B\n", wa.Name)
			counts[verdictUnresolved]++
			continue
		}
		for _, def := range endToEnd {
			sa, okA := wa.Metrics[def.Name]
			sb, okB := wb.Metrics[def.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-18s %-15s missing from one side\n", wa.Name, def.Name)
				counts[verdictUnresolved]++
				continue
			}
			bound, ok := a.Bounds[def.Name]
			if !ok {
				bound = def.Bound
			}
			v, delta, spread := judge(sa, sb, def.Better, bound)
			counts[v]++
			fmt.Fprintf(out, "%-18s %-15s %-6s %12.6g %25s %12.6g %25s %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				wa.Name, def.Name, sa.Unit, sa.Value, quartiles(sa), sb.Value, quartiles(sb),
				100*delta, 100*spread, 100*bound, v)
		}
	}

	changed := 0
	fmt.Fprintln(out, "simulated results of round 0 (must be identical for a simulator-only change):")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		if a.Seed != b.Seed {
			fmt.Fprintf(out, "  %-18s not comparable: seeds differ\n", wa.Name)
			continue
		}
		status := "identical"
		if wa.SimDigest != wb.SimDigest {
			status = fmt.Sprintf("CHANGED sim_digest %s -> %s", wa.SimDigest, wb.SimDigest)
			changed++
		}
		fmt.Fprintf(out, "  %-18s %s\n", wa.Name, status)
		for _, k := range sortedKeys(wa.Exact) {
			if wa.Exact[k] != wb.Exact[k] {
				fmt.Fprintf(out, "    CHANGED %s %d -> %d\n", k, wa.Exact[k], wb.Exact[k])
			}
		}
		if wa.Failed != wb.Failed || wa.Attempted != wb.Attempted {
			fmt.Fprintf(out, "    failed/attempted %d/%d -> %d/%d\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	fmt.Fprintf(out, "summary: %d better, %d same, %d worse, %d unresolved; %d workload(s) with changed simulated results\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved], changed)
	if counts[verdictWorse]+counts[verdictUnresolved] > 0 {
		return 1
	}
	return 0
}

func quartiles(s sample) string {
	return fmt.Sprintf("[%.5g, %.5g] n=%d", s.Q1, s.Q3, s.N)
}
