// Package reesift is the public façade of the REE SIFT reproduction
// (Whisnant, Iyer, Jones, Some, Rennels: "An Experimental Evaluation of
// the REE SIFT Environment for Spaceborne Applications"). It is the one
// supported way to drive the system; everything underneath lives in
// internal packages.
//
// The package has six pillars:
//
//   - A functional-options cluster builder. NewCluster assembles a
//     deterministic simulated REE cluster, installs the SIFT environment
//     (daemons, FTM, Heartbeat ARMOR), and validates the configuration
//     eagerly:
//
//     c, err := reesift.NewCluster(
//     reesift.WithNodes(6),
//     reesift.WithSeed(42),
//     reesift.WithHeartbeatPeriod(10*time.Second),
//     )
//
//   - A scenario registry. Experiment workloads register themselves with
//     Register(Scenario{...}) — typically from an init function — and
//     consumers such as cmd/reesift discover them with Scenarios and
//     Lookup. All of the paper's Table 3..12 and Figure 5..10
//     reproductions self-register under their paper ids ("table4",
//     "fig9", ...).
//
//   - A structured Result type. Scenario runs return typed tables
//     (Cell/Table) plus run counts, injection tallies, and wall-clock
//     time, and marshal to JSON — so campaign products are
//     machine-readable rather than pre-rendered text.
//
//   - A campaign authoring layer. Campaign runs named cells of
//     Injection configurations times run counts; Sweep crosses
//     parameter axes (error models, targets, cluster options, any
//     Injection field) into those cells; Observer streams per-run
//     progress in seed order. Per-run seeds derive from the campaign
//     seed and the cell identity ("<campaign>/<cell>", run), so no two
//     campaigns ever replay the same kernels, and every CampaignResult
//     — per-cell results and exact tallies — is a pure function of the
//     campaign and its seed at any worker count. The paper-reproduction
//     scenarios in internal/experiments are written on these same
//     primitives; the registered "recovery-sweep" scenario is the
//     worked example (a NodeRestartAfter x heartbeat-period sweep
//     against node-crash recovery time).
//
//   - A continuous-chaos layer. Setting Arrival on an Injection (or a
//     campaign cell) replaces the one-fault-per-run shape with a
//     long-horizon trial: a relay service beats through the
//     progress-indicator interface while a fault arrival process —
//     ArrivalPoisson, ArrivalBursts, ArrivalRollingOutage, or
//     ArrivalDoubleFault — fires the cell's error model on its own
//     deterministic, seed-stream-derived clock, over simulated hours or
//     days. The trial's beat record reduces to Result.Chaos:
//     availability, the empirical MTTR distribution (p50/p95/max), and
//     the time to the first unrecoverable state. Observer.OnArrival
//     replays each trial's arrival events in order, and the registered
//     "chaos" scenario cross-checks measured low-rate unavailability
//     against the Figure 9 SAN model's prediction.
//
//   - An observability layer. Setting Trace on a Campaign (or
//     Scale.Trace for a scenario run) records every run's structured
//     trace: the kernel emits typed records (process spawn/exit, node
//     down/up, message sends) into a bounded per-run ring, the SIFT
//     environment mirrors its protocol-level spans (detections,
//     recovery windows, checkpoint commits, heartbeat rounds), and a
//     metrics registry samples kernel gauges on deterministic sim-time
//     ticks. Every traced result carries a digest of the full stream
//     (InjectionResult.TraceDigest); runs classified as system failures
//     snapshot a self-contained JSONL repro bundle — identity, seed,
//     verdict, trace tail — that ReadBundle loads and the CLI's -replay
//     mode re-executes, verifying the verdict and digest reproduce
//     byte-identically. Tracing draws no randomness, so classifications
//     are identical traced and untraced, and the kernel's hot path
//     stays allocation-free when tracing is off.
//
// Single fault-injection runs are available through the Injection type,
// which accepts the same cluster options for the run's environment.
//
// ARMOR identities are epoched: every recoverer (FTM, Heartbeat ARMOR,
// daemons) carries a monotonic incarnation epoch, bumped on each
// failure declaration, so a healed network partition's duplicate
// recoverers reconcile — the superseded incarnation's traffic is
// rejected and it stands down instead of falsely re-recovering live
// processes. The per-run observables are Result.StandDowns,
// Result.SupersededEpochs, and Result.StaleRecovererStoodDown;
// WithoutEpochs disables the mechanism for ablation, and the registered
// "split-brain" scenario pins the partition-then-heal behaviour both
// ways.
//
// Scenario campaigns fan their injection trials across a worker pool
// (Scale.Workers; zero means GOMAXPROCS) and reduce results in run-seed
// order, so every Result is a pure function of Scale and Seed: the
// worker count changes wall-clock time only, never a table cell or a
// tally.
//
// The simulation kernel underneath holds a zero-allocation contract on
// its steady-state hot path: event scheduling, periodic timer re-arms,
// message send/receive, and sleep/timeout wakeups allocate nothing once
// warm (event records are pooled and generation-stamped, queues are
// ring buffers). That is what makes campaigns three orders of magnitude
// larger than the paper's 4-node testbed — the "scale" scenario's
// 1000-node clusters with thousands of Execution ARMORs — cheap enough
// for CI; the contract is pinned by allocation-counting tests
// (TestNoallocRuntime in internal/sim: 0 allocations per event and per
// Send/Recv), and InjectionResult.EventsFired / InjectionResult.SimTime
// expose each run's throughput numerators. The ARMOR runtime and the
// SIFT daemons above it extend the contract to the message path: a
// steady-state heartbeat period allocates one object per originated
// envelope and nothing else (TestArmorRoundAllocs).
//
// Both contracts — determinism and the zero-alloc hot path — are also
// statically checked: the analyzers under internal/analysis (run by
// cmd/reesiftvet, standalone or via go vet -vettool, and by CI) reject
// nondeterminism in the simulation packages, ad-hoc seed arithmetic
// outside the campaign engine's DeriveSeed, unguarded trace emission,
// and allocation constructs inside //reesift:noalloc functions — and
// every such function is also measured: a TestNoallocRuntime per package
// fails unless each annotation is named by an AllocsPerRun == 0 check.
package reesift
