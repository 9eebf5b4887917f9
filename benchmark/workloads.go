package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/pkg/reesift"
)

// sizing scales a workload. The default run uses fullSize; set-up warms
// up at a quarter of it; the smoke test shrinks everything to about 1/50.
// Sizes are constants of the benchmark, not options: a result is only
// comparable with another measured at the same size.
type sizing struct {
	// work scales the trial count of a round (campaign runs per cell,
	// chaos trials) or, for the single-trial scale workload, its length.
	work float64
	// wideNodes is the node count of the wide cluster (scale-cluster and
	// the .400 probes).
	wideNodes int
	// probe is the minimum time one layer probe measures for.
	probe time.Duration
}

var (
	fullSize  = sizing{work: 1, wideNodes: 400, probe: 500 * time.Millisecond}
	smokeSize = sizing{work: 1.0 / 50, wideNodes: 16, probe: 2 * time.Millisecond}
)

// part is the size of one n-th of a round: a quarter for the phased
// rounds, an eighth for set-up's warm-up round.
func (s sizing) part(n float64) sizing {
	s.work /= n
	return s
}

func (s sizing) scale(n int) int {
	return int(math.Max(1, math.Ceil(float64(n)*s.work)))
}

// clusterSpec is a cluster definition kept in one place and rendered two
// ways: as the public options the timed rounds pass to reesift.Injection,
// and as the internal EnvConfig the phased (span) trials hand to
// inject.NewRunner. TestPhasedMatchesPublic pins the two renderings to
// identical simulated results.
type clusterSpec struct {
	nodes   int    // 0 = the paper's 4-node testbed
	ftm, hb string // "" = default placement
	shared  bool   // centralized checkpoints
	wide    bool   // the scale scenario's large-cluster policies
}

// options renders the spec as façade options; the zero spec renders as
// none, which the façade reads as "the model's default testbed".
func (c clusterSpec) options() []reesift.Option {
	var opts []reesift.Option
	if c.nodes > 0 {
		opts = append(opts, reesift.WithNodes(c.nodes))
	}
	if c.ftm != "" {
		opts = append(opts, reesift.WithFTMNode(c.ftm))
	}
	if c.hb != "" {
		opts = append(opts, reesift.WithHeartbeatNode(c.hb))
	}
	if c.shared {
		opts = append(opts, reesift.WithSharedCheckpoints())
	}
	if c.wide {
		opts = append(opts,
			reesift.WithSpreadPlacement(),
			reesift.WithScopedLocationBroadcast(),
			reesift.WithDaemonRebind(),
			reesift.WithHeartbeatPeriod(30*time.Second),
			reesift.WithDaemonAYAPeriod(30*time.Second),
			reesift.WithSCCCommandDelay(2*time.Millisecond))
	}
	return opts
}

// nodeNames mirrors reesift.WithNodes: the paper's hostnames for the
// 4-node testbed, n1..nN otherwise.
func (c clusterSpec) nodeNames() []string {
	if c.nodes == 0 || c.nodes == 4 {
		return []string{"node-a1", "node-a2", "node-b1", "node-b2"}
	}
	names := make([]string, c.nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	return names
}

// env renders the spec as the runner's environment override; the zero
// spec renders as nil, the runner's own default.
func (c clusterSpec) env() *sift.EnvConfig {
	if c == (clusterSpec{}) {
		return nil
	}
	cfg := sift.DefaultEnvConfig(c.nodeNames()...)
	if c.ftm != "" {
		cfg.FTMNode = c.ftm
	}
	if c.hb != "" {
		cfg.HeartbeatNode = c.hb
	}
	cfg.SharedCheckpoints = c.shared
	if c.wide {
		cfg.SpreadPlacement = true
		cfg.ScopedLocationBroadcast = true
		cfg.DaemonRebind = true
		cfg.FTMHeartbeatPeriod = 30 * time.Second
		cfg.HeartbeatArmorPeriod = 30 * time.Second
		cfg.DaemonAYAPeriod = 30 * time.Second
		cfg.SCCCommandDelay = 2 * time.Millisecond
	}
	return &cfg
}

// cell is one trial template of a workload times a run count.
type cell struct {
	name    string
	runs    int
	inj     reesift.Injection // Seed and Cluster are filled per use
	cluster clusterSpec
}

func (c cell) injection() reesift.Injection {
	inj := c.inj
	inj.Cluster = c.cluster.options()
	return inj
}

// config is the internal rendering of the cell for one phased trial. It
// mirrors what reesift.Injection resolves to, including the per-run copy
// of every AppSpec that Campaign makes (Submit backfills a default into
// the spec it is handed).
func (c cell) config(seed int64) inject.Config {
	apps := make([]*sift.AppSpec, len(c.inj.Apps))
	for i, a := range c.inj.Apps {
		cp := *a
		apps[i] = &cp
	}
	return inject.Config{
		Seed:             seed,
		Model:            c.inj.Model,
		Target:           c.inj.Target,
		Rank:             c.inj.Rank,
		Apps:             apps,
		SubmitAt:         c.inj.SubmitAt,
		Window:           c.inj.Window,
		Timeout:          c.inj.Timeout,
		NodeRestartAfter: c.inj.NodeRestartAfter,
		Compound:         c.inj.Compound,
		Env:              c.cluster.env(),
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// fanOut workloads run each round as one reesift.Campaign across
	// nproc workers; the others run their trials one after another
	// through Injection.Run on a single worker.
	fanOut bool
	cells  func(sizing) []cell
}

// identity is the seed identity of a cell, the same string
// reesift.Campaign derives per-run seeds from, so a serial trial, a
// campaign trial and a phased trial of one (round, cell, run) replay the
// same kernel.
func (w workload) identity(c cell) string { return w.campaign() + "/" + c.name }

func (w workload) campaign() string { return "bench/" + w.name }

var workloads = []workload{
	{
		name:   "campaign-rover",
		why:    "paper-style one-shot campaign (Tables 4-7 shape): rover FFT/k-means is ~69% of CPU and campaign fan-out is on the critical path; the SIFT message path is the minority",
		fanOut: true,
		cells: func(s sizing) []cell {
			var cells []cell
			for _, m := range []reesift.Model{reesift.ModelSIGINT, reesift.ModelSIGSTOP} {
				for _, t := range []reesift.Target{reesift.TargetApp, reesift.TargetFTM, reesift.TargetExecArmor, reesift.TargetHeartbeat} {
					cells = append(cells, cell{
						name: m.String() + "/" + t.String(),
						runs: s.scale(200),
						inj:  reesift.Injection{Model: m, Target: t, Apps: []*reesift.AppSpec{reesift.RoverApp(1)}},
					})
				}
			}
			return cells
		},
	},
	{
		name: "chaos-simday",
		why:  "long-horizon steady state on one worker: heartbeats, progress beats, microcheckpoints and process-level reinstall with no app compute, where goroutine handoff and core/sift allocations dominate",
		cells: func(s sizing) []cell {
			// Below a tenth of full size a single trial is shortened
			// instead (the smoke test cannot afford a simulated day).
			horizon := 24 * time.Hour
			if s.work < 0.1 {
				horizon = time.Duration(float64(horizon) * s.work * 10)
			}
			return []cell{{
				name: "poisson-sigint-exec",
				runs: s.scale(10),
				inj: reesift.Injection{
					Model:  reesift.ModelSIGINT,
					Target: reesift.TargetExecArmor,
					// The built-in relay service, placed where the façade
					// would place it (first node hosting neither the FTM
					// nor the Heartbeat ARMOR).
					Apps: []*reesift.AppSpec{reesift.ChaosServiceApp(1, "node-b1", 0)},
					Arrival: &reesift.Arrival{
						Process:     reesift.ArrivalPoisson,
						Horizon:     horizon,
						MeanBetween: 4 * time.Minute,
					},
				},
			}}
		},
	},
	{
		name: "scale-cluster",
		why:  "one wide-cluster trial (400 nodes, 520 Exec ARMORs): deep event heap, a large resident set of goroutine stacks and ARMOR state, O(nodes) FTM snapshots, GC scan; the only workload with a large RSS",
		cells: func(s sizing) []cell {
			return []cell{scaleCell(s.wideNodes, s.scale(45))}
		},
	},
	{
		name:   "campaign-recovery",
		why:    "short recovery trials (~1.4 ms): per-trial build/teardown and the campaign engine weigh most, and in-trial time goes to the read side (checkpoint Load/Decoder, reinstall, FTM migration, node restart)",
		fanOut: true,
		cells: func(s sizing) []cell {
			shared := clusterSpec{shared: true}
			isolated := clusterSpec{shared: true, ftm: "node-b1", hb: "node-b2"}
			mk := func(name string, cl clusterSpec, inj reesift.Injection) cell {
				inj.Apps = []*reesift.AppSpec{beatApp(1, []string{"node-a1", "node-a2"}, 2, 5)}
				return cell{name: name, runs: s.scale(600), inj: inj, cluster: cl}
			}
			return []cell{
				mk("node-crash/app-node-isolated-sift", isolated, reesift.Injection{Model: reesift.ModelNodeCrash, Target: reesift.TargetApp, Rank: 1}),
				mk("node-crash/ftm-node", shared, reesift.Injection{Model: reesift.ModelNodeCrash, Target: reesift.TargetFTM}),
				mk("node-crash/heartbeat-node", shared, reesift.Injection{Model: reesift.ModelNodeCrash, Target: reesift.TargetHeartbeat}),
				mk("compound/hb-deaf-then-ftm-node-crash", shared, reesift.Injection{Model: reesift.ModelCompound, Target: reesift.TargetFTM}),
				mk("SIGINT/FTM", shared, reesift.Injection{Model: reesift.ModelSIGINT, Target: reesift.TargetFTM}),
				mk("SIGSTOP/Execution ARMOR", shared, reesift.Injection{Model: reesift.ModelSIGSTOP, Target: reesift.TargetExecArmor}),
			}
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// beatPeriod is the synthetic application's progress-indicator period
// (20 s, the texture-analysis program's filter time).
const beatPeriod = 20 * time.Second

// beatApp is a synthetic application with no numeric compute: every rank
// announces a progress indicator, beats it a fixed number of times and
// exits, which exercises the whole monitoring protocol.
func beatApp(id sift.AppID, hint []string, ranks, beats int) *sift.AppSpec {
	spec := &sift.AppSpec{
		ID:              id,
		Name:            fmt.Sprintf("beat-%d", id),
		Ranks:           ranks,
		Nodes:           hint,
		PIPeriod:        beatPeriod,
		MPIStartTimeout: 10 * time.Second,
	}
	spec.Launcher = func(ac *sift.AppContext) {
		if ac.Rank == 0 {
			for r := 1; r < spec.Ranks; r++ {
				pid := ac.SpawnRank("", r)
				ac.SendPIDs(map[int]sim.PID{r: pid})
			}
		} else if !ac.WaitChannelOpen(2 * time.Minute) {
			ac.Proc.Exit(3, "channel open timeout")
		}
		ac.PICreate(beatPeriod)
		for i := 1; i <= beats; i++ {
			ac.Proc.Sleep(beatPeriod)
			ac.Step()
			ac.Progress(uint64(i))
		}
		ac.NotifyExiting()
	}
	return spec
}

// scaleCell is the wide-cluster trial: apps × 26 ranks of beatApp spread
// over the cluster, the scale scenario's policies on, and the FTM killed
// mid-run so its O(nodes) state is restored from the shared checkpoint.
//
// The fault is SIGINT into the FTM, not the scale scenario's node crash:
// at 400 nodes a node crash sets off between 9 and 57 application
// restarts depending on the seed, which moves the work of a round by
// ±15% and would drown every bound of this benchmark. The FTM kill fires
// the same number of events (±0.01%) on every seed.
func scaleCell(nodes, beats int) cell {
	cl := clusterSpec{nodes: nodes, shared: true, wide: true}
	names := cl.nodeNames()
	ranks, apps := 26, nodes/20
	if nodes < 100 { // smoke-test cluster
		ranks, apps = 5, 3
	}
	specs := make([]*sift.AppSpec, apps)
	for i := range specs {
		hint := []string{names[1+(2*i)%(nodes-1)], names[1+(2*i+1)%(nodes-1)]}
		specs[i] = beatApp(sift.AppID(i+1), hint, ranks, beats)
	}
	const submitAt = 30 * time.Second
	work := time.Duration(beats) * beatPeriod
	return cell{
		name:    fmt.Sprintf("nodes-%d", nodes),
		runs:    1,
		cluster: cl,
		inj: reesift.Injection{
			Model:    reesift.ModelSIGINT,
			Target:   reesift.TargetFTM,
			Apps:     specs,
			SubmitAt: submitAt,
			Window:   work / 2,
			Timeout:  submitAt + 2*work + 8*time.Minute,
		},
	}
}

// trialOut is what the benchmark keeps of one trial.
type trialOut struct {
	digest      uint64
	events      uint64
	simTime     time.Duration
	arrivals    int
	unrecovered bool // SystemFailure, or for one-shot trials !Done
	sysFailure  bool
	recovered   bool
	err         error
}

func outcome(r *inject.Result) trialOut {
	t := trialOut{
		digest:     trialDigest(r),
		events:     r.EventsFired,
		simTime:    r.SimTime,
		sysFailure: r.SystemFailure,
		recovered:  r.Recovered,
	}
	if r.Chaos != nil {
		// A relay service never completes; a chaos trial is lost only
		// when the service never came back.
		t.arrivals = r.Chaos.Arrivals
		t.unrecovered = r.SystemFailure
	} else {
		t.unrecovered = r.SystemFailure || !r.Done
	}
	return t
}

// trialDigest is the FNV-1a fingerprint of a trial's simulated result:
// every field that is a pure function of the seed, and nothing derived
// from host time.
func trialDigest(r *inject.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	flag := func(v bool) {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(r.Seed))
	put(uint64(r.Injected))
	put(uint64(r.InjectedAt))
	flag(r.Failed)
	put(uint64(r.Class))
	flag(r.Recovered)
	put(uint64(r.RecoveryTime))
	flag(r.Done)
	flag(r.SystemFailure)
	put(uint64(r.Perceived))
	put(uint64(r.Actual))
	put(r.EventsFired)
	put(uint64(r.SimTime))
	if r.Chaos != nil {
		put(uint64(r.Chaos.Arrivals))
		put(math.Float64bits(r.Chaos.Availability))
	}
	return h.Sum64()
}

// foldDigests folds trial digests, in trial order, into one figure.
func foldDigests(trials []trialOut) string {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range trials {
		binary.LittleEndian.PutUint64(b[:], t.digest)
		_, _ = h.Write(b[:])
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// runRound runs one round of a workload through the public API and
// returns its trials in (cell, run) order. Trial seeds derive from the
// round seed and the cell identity, so the result is the same at any
// worker count.
func runRound(w workload, cells []cell, seed int64, workers int) []trialOut {
	var out []trialOut
	if w.fanOut {
		cc := make([]reesift.CampaignCell, len(cells))
		total := 0
		for i, c := range cells {
			cc[i] = reesift.CampaignCell{Name: c.name, Runs: c.runs, Injection: c.injection()}
			total += c.runs
		}
		res, err := reesift.Campaign{Name: w.campaign(), Seed: seed, Workers: workers, Cells: cc}.Run()
		if err != nil {
			// A campaign that does not start loses every trial.
			out = make([]trialOut, total)
			for i := range out {
				out[i].err = err
			}
			return out
		}
		for i := range res.Cells {
			for j := range res.Cells[i].Results {
				out = append(out, outcome(&res.Cells[i].Results[j]))
			}
		}
		return out
	}
	for _, c := range cells {
		inj := c.injection()
		for run := 0; run < c.runs; run++ {
			inj.Seed = campaign.DeriveSeed(seed, w.identity(c), run)
			r, err := inj.Run()
			if err != nil {
				out = append(out, trialOut{err: err})
				continue
			}
			out = append(out, outcome(&r))
		}
	}
	return out
}

// verifyCells is the part of a round the verify step replays: the first
// quarter of every cell's runs, at least one.
func verifyCells(cells []cell) []cell {
	out := make([]cell, len(cells))
	for i, c := range cells {
		c.runs = (c.runs + 3) / 4
		out[i] = c
	}
	return out
}

// verifyRound replays the first quarter of a recorded round on one worker
// and returns how many trials it ran and how many did not reproduce their
// recorded digest. recorded is the full round in (cell, run) order.
func verifyRound(w workload, cells []cell, seed int64, recorded []trialOut) (attempted, failed int) {
	part := verifyCells(cells)
	replay := runRound(w, part, seed, 1)
	base, k := 0, 0
	for i, c := range part {
		for run := 0; run < c.runs; run++ {
			got, want := replay[k], recorded[base+run]
			if got.err != nil || want.err != nil || got.digest != want.digest {
				failed++
			}
			k++
		}
		base += cells[i].runs
	}
	return len(replay), failed
}
