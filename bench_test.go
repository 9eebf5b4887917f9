// Package reesift_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: one benchmark per table/figure, each
// printing the reproduced table once. Benchmarks run the SmallScale
// campaigns (the same code as the paper-scale CLI, at reduced run counts);
// `go run ./cmd/reesift -scale paper` produces the full-size campaigns.
package reesift_bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/experiments"
	"reesift/internal/sim"
	"reesift/pkg/reesift"
)

// scale is shared by all benchmarks. Workers is left at zero, so every
// benchmark exercises the campaign engine's parallel path at GOMAXPROCS
// workers; BenchmarkCampaignWorkers pins the 1-vs-N comparison.
func scale() experiments.Scale { return experiments.SmallScale() }

// printOnce avoids flooding the benchmark log on -benchtime reruns.
var printed sync.Map

func report(b *testing.B, id string, render func() (string, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := render()
		if err != nil {
			b.Fatal(err)
		}
		if _, dup := printed.LoadOrStore(id, true); !dup {
			fmt.Println(out)
		}
	}
}

// BenchmarkCampaignWorkers runs the Table 7 heap campaign — a pure
// fan-out of independent trials — at a sweep of worker counts. The
// workers=1 case is the sequential baseline; the speedup of the
// GOMAXPROCS case over it is the campaign engine's headline number, and
// the tables rendered at every worker count are byte-identical (see
// TestCampaignDeterminismAcrossWorkerCounts).
func BenchmarkCampaignWorkers(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool)
	for _, w := range counts {
		if seen[w] {
			continue // 1- and 2-core machines collapse the sweep
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			sc := scale().WithWorkers(w)
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.Table7(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3Baseline(b *testing.B) {
	report(b, "table3", func() (string, error) {
		t, _, err := experiments.Table3(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkTable4CrashHang(b *testing.B) {
	report(b, "table4", func() (string, error) {
		t, _, err := experiments.Table4(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkTable5Heartbeat(b *testing.B) {
	report(b, "table5", func() (string, error) {
		t, _, err := experiments.Table5(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkTable6RegText(b *testing.B) {
	report(b, "table6", func() (string, error) {
		t, _, err := experiments.Table6(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkTable7Heap(b *testing.B) {
	report(b, "table7", func() (string, error) {
		t, _, err := experiments.Table7(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkTable8TargetedHeap(b *testing.B) {
	report(b, "table8", func() (string, error) {
		t8, _, _, err := experiments.Table8And9(scale())
		if err != nil {
			return "", err
		}
		return t8.Render(), nil
	})
}

func BenchmarkTable9Assertions(b *testing.B) {
	report(b, "table9", func() (string, error) {
		_, t9, _, err := experiments.Table8And9(scale())
		if err != nil {
			return "", err
		}
		return t9.Render(), nil
	})
}

func BenchmarkTable10AppHeap(b *testing.B) {
	report(b, "table10", func() (string, error) {
		t, _, err := experiments.Table10(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkTable11MultiApp(b *testing.B) {
	report(b, "table11", func() (string, error) {
		t11, _, _, err := experiments.Table11And12(scale())
		if err != nil {
			return "", err
		}
		return t11.Render(), nil
	})
}

func BenchmarkTable12MultiAppClass(b *testing.B) {
	report(b, "table12", func() (string, error) {
		_, t12, _, err := experiments.Table11And12(scale())
		if err != nil {
			return "", err
		}
		return t12.Render(), nil
	})
}

func BenchmarkFigure5Timeline(b *testing.B) {
	report(b, "figure5", func() (string, error) {
		t, err := experiments.Figure5(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkFigure6HangLatency(b *testing.B) {
	report(b, "figure6", func() (string, error) {
		t, _, err := experiments.Figure6(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkFigure7FTMPhases(b *testing.B) {
	report(b, "figure7", func() (string, error) {
		t, _, err := experiments.Figure7(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkFigure8CorrelatedStartup(b *testing.B) {
	report(b, "figure8", func() (string, error) {
		t, err := experiments.Figure8(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkFigure9SAN(b *testing.B) {
	report(b, "figure9", func() (string, error) {
		t, _, err := experiments.Figure9(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkFigure10RegistrationRace(b *testing.B) {
	report(b, "figure10", func() (string, error) {
		t, err := experiments.Figure10(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

// Ablation benches for the design choices DESIGN.md calls out: polling vs
// interrupt-driven hang detection (Section 5.1), element assertions
// on/off (Section 7/9), and node-local vs centralized checkpoint storage
// (Section 3.4).

func BenchmarkAblationWatchdog(b *testing.B) {
	report(b, "ablation-watchdog", func() (string, error) {
		t, err := experiments.AblationWatchdog(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkAblationAssertions(b *testing.B) {
	report(b, "ablation-assertions", func() (string, error) {
		t, err := experiments.AblationAssertions(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

func BenchmarkAblationCheckpointStore(b *testing.B) {
	report(b, "ablation-checkpoint-store", func() (string, error) {
		t, err := experiments.AblationSharedCheckpoints(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
}

// BenchmarkRecoveryTime runs the recovery-subsystem campaign (node
// crashes against application-hosting nodes, compound FTM/daemon
// losses) and reports the pooled mean application recovery time —
// failure detection to restarted code running — as a custom metric, so
// the BENCH.json artifact tracks the recovery path's performance
// trajectory alongside the campaign-engine speedup.
func BenchmarkRecoveryTime(b *testing.B) {
	var mean float64
	report(b, "recovery", func() (string, error) {
		t, data, err := experiments.TableRecovery(scale())
		if err != nil {
			return "", err
		}
		mean = data.MeanRecoverySeconds
		return t.Render(), nil
	})
	b.ReportMetric(mean, "s/recovery")
}

// BenchmarkSweepCampaign runs the recovery-sweep scenario — the public
// Campaign/Sweep API path (axis crossing, campaign-derived seeds,
// per-campaign census) — so the BENCH.json trajectory covers the
// authoring layer alongside the internal engine.
func BenchmarkSweepCampaign(b *testing.B) {
	report(b, "recovery-sweep", func() (string, error) {
		res, err := experiments.RecoverySweep(scale())
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	})
}

// BenchmarkChaosSimDay runs one 24-simulated-hour Poisson chaos trial
// (SIGINT arrivals against the Execution ARMOR, one every ~4 minutes on
// average) and reports wall-clock seconds per simulated day. This is
// the chaos subsystem's headline cost: how much real time a day of
// continuous background faulting takes, which bounds how long a horizon
// paper-scale chaos campaigns can afford. Gated against the previous
// run's BENCH.json by cmd/benchgate in CI.
func BenchmarkChaosSimDay(b *testing.B) {
	inj := reesift.Injection{
		Model:  reesift.ModelSIGINT,
		Target: reesift.TargetExecArmor,
		Seed:   1,
		Arrival: &reesift.Arrival{
			Process:     reesift.ArrivalPoisson,
			Horizon:     24 * time.Hour,
			MeanBetween: 4 * time.Minute,
		},
	}
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := inj.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Chaos == nil || res.Chaos.Arrivals == 0 {
			b.Fatal("chaos trial recorded no arrivals")
		}
	}
	b.ReportMetric(time.Since(start).Seconds()/float64(b.N), "s/sim-day")
}

// BenchmarkArmorRound measures the steady-state ARMOR/SIFT message path:
// the 4-node testbed with the chaos relay service beating, no faults. One
// op is one simulated heartbeat period (10 s: one FTM heartbeat round, one
// Heartbeat-ARMOR poll, one are-you-alive round per daemon, two relay
// beats). The message path itself allocates nothing — snapshots, the
// element context, timers and daemon hops are all reused — so what is left
// is one box per envelope originated (allocs/envelope ≈ 1) plus the relay's
// progress payload and log-detail string per beat. An envelope is counted
// where it enters the network (Hops == 0); sends/envelope is the hop count.
func BenchmarkArmorRound(b *testing.B) {
	const period = 10 * time.Second
	c, err := reesift.NewCluster(reesift.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Run(5 * time.Second)
	c.Submit(reesift.ChaosServiceApp(1, "node-b1", 0), c.Now())
	limit := c.Run(6 * period) // installed, pools and scratch buffers warm
	k := c.Kernel()
	var envelopes uint64
	k.InstallNetFault(1, &sim.NetFault{Match: func(_, _ sim.PID, payload interface{}) bool {
		if env, ok := payload.(*core.Envelope); ok && env.Hops == 0 {
			envelopes++
		}
		return false // observe only
	}})
	sent := k.MessagesSent()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += period
		c.Run(limit)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if envelopes == 0 {
		b.Fatal("no envelope originated")
	}
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(envelopes), "allocs/envelope")
	b.ReportMetric(float64(envelopes)/float64(b.N), "envelopes/op")
	b.ReportMetric(float64(k.MessagesSent()-sent)/float64(envelopes), "sends/envelope")
}

// Kernel hot-path benchmarks. These are the alloc-gated pair: run with
// -benchmem, the steady-state loops must report 0 allocs/op (event
// records are pooled on the kernel free list, the ready queue and
// per-process inboxes are ring buffers, payloads are boxed once). CI
// records allocs/op and B/op in BENCH.json and cmd/benchgate fails the
// build if either comes back.

// BenchmarkKernelEvents measures the bare event loop: a periodic timer
// firing every simulated millisecond, re-arming itself, and pushing a
// pending watchdog-style event out with Reschedule on every tick —
// the Schedule/fire/Reschedule cycle every heartbeat and watchdog in
// the environment rides on. Each iteration advances the clock one
// simulated second (1000 fired events).
func BenchmarkKernelEvents(b *testing.B) {
	const period = time.Millisecond
	const window = time.Second
	k := sim.NewKernel(sim.Config{Seed: 1})
	// tick and the watchdog handle are bound once; the steady state
	// reuses pooled event records and the same func value.
	var tick func()
	wd := k.Schedule(time.Minute, func() {})
	tick = func() {
		wd.Reschedule(time.Minute)
		k.Schedule(period, tick)
	}
	k.Schedule(period, tick)
	limit := window
	k.Run(limit) // warm the event pool and heap backing array
	start := k.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += window
		k.Run(limit)
	}
	b.StopTimer()
	fired := k.EventsFired() - start
	if fired == 0 {
		b.Fatal("kernel fired no events")
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSendRecv measures the message path: two processes on one
// node ping-ponging a pre-boxed payload through Send/Recv park/wake.
// Each iteration advances the clock 100 simulated milliseconds (500
// round trips at the 100 µs local latency).
func BenchmarkSendRecv(b *testing.B) {
	const window = 100 * time.Millisecond
	k := sim.NewKernel(sim.Config{Seed: 1})
	defer k.Shutdown()
	n := k.AddNode("bench")
	type ping struct{ beat int }
	payload := interface{}(ping{beat: 1}) // boxed once, outside the loop
	echo := k.Spawn(n, "echo", sim.NoPID, func(p *sim.Proc) {
		for {
			m := p.Recv()
			p.Send(m.From, m.Payload)
		}
	})
	k.Spawn(n, "driver", sim.NoPID, func(p *sim.Proc) {
		for {
			p.Send(echo, payload)
			p.Recv()
		}
	})
	limit := window
	k.Run(limit) // warm inbox rings and the event pool
	start := k.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += window
		k.Run(limit)
	}
	b.StopTimer()
	fired := k.EventsFired() - start
	if fired == 0 {
		b.Fatal("kernel fired no events")
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkScale1000 times the scale scenario's headline trial: a
// 1000-node cluster, 39 applications × 52 ranks (2028 Execution
// ARMORs), a node crash mid-run, and over an hour of simulated time.
// It reports the scale scenario's throughput metrics — events/sec and
// wall seconds per simulated day — as the gated baseline for "as fast
// as the hardware allows" at production scale.
func BenchmarkScale1000(b *testing.B) {
	inj := experiments.ScaleBenchInjection()
	var events uint64
	var simTime time.Duration
	for i := 0; i < b.N; i++ {
		res, err := inj.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.SystemFailure {
			b.Fatal("1000-node trial ended in a system failure")
		}
		if res.SimTime < time.Hour {
			b.Fatalf("trial simulated only %v; the scale claim needs ≥ 1h", res.SimTime)
		}
		events += res.EventsFired
		simTime += res.SimTime
	}
	wall := b.Elapsed().Seconds()
	if wall > 0 {
		b.ReportMetric(float64(events)/wall, "events/sec")
		b.ReportMetric(wall/(simTime.Hours()/24), "s/sim-day")
	}
}

// BenchmarkSplitBrain runs the split-brain reconciliation campaign —
// partition-then-heal against the Heartbeat ARMOR's node under
// incarnation epochs, plus the no-epochs ablation — and reports
// wall-clock seconds per campaign. The ablation cells run to their
// system-failure deadline, so this metric bounds what partition-heavy
// campaigns cost; gated against the previous run's BENCH.json by
// cmd/benchgate in CI.
func BenchmarkSplitBrain(b *testing.B) {
	start := time.Now()
	report(b, "split-brain", func() (string, error) {
		t, _, err := experiments.TableSplitBrain(scale())
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	})
	b.ReportMetric(time.Since(start).Seconds()/float64(b.N), "s/split-brain")
}
