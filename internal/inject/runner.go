package inject

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"reesift/internal/core"
	"reesift/internal/memsim"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/internal/trace"
)

// Runner owns one injection run's control, monitoring, and data
// collection: it builds the cluster and SIFT environment from the seed,
// schedules the model's registered Injector, and classifies the outcome
// from the environment log. The injectors themselves only insert errors;
// everything they need — the target oracles, the run RNG, the result —
// they reach through the Runner.
type Runner struct {
	cfg Config
	env *sift.Environment
	k   *sim.Kernel
	res *Result
	rng *rand.Rand
	inj Injector

	// rec is the run's structured trace recorder; nil unless Config.Trace
	// enabled tracing.
	rec *trace.Recorder

	// stopped latches once a repeated-injection model has observed its
	// first induced failure (Section 4.1).
	stopped bool

	// override temporarily redirects target resolution while a compound
	// coordinator arms one of its stages; nil means the Config's target
	// governs.
	override *targetRef

	// stages caches one injector instance per distinct stage fired
	// through FireStage, in first-use order, so interval models keep
	// their state across repeated arrivals and their Finishers run
	// exactly once.
	stages []*firedStage

	// settle, when set, adjusts the Result at the end of Finish.
	settle func(*Result)

	// released latches once Release has given the kit back.
	released bool
}

// firedStage is one cached FireStage injector.
type firedStage struct {
	stage CompoundStage
	inj   Firer
}

// targetRef is a resolved injection subject: the stable binding a
// long-lived injector closure captures so it keeps pointing at its own
// stage's target after the coordinator moves on.
type targetRef struct {
	kind TargetKind
	rank int
}

// target returns the currently armed injection subject.
func (r *Runner) target() targetRef {
	if r.override != nil {
		return *r.override
	}
	return targetRef{kind: r.cfg.Target, rank: r.cfg.Rank}
}

// withTarget runs fn with target resolution redirected to t. It is the
// compound coordinator's arming scope; everything runs in kernel
// context, so no synchronization is needed.
func (r *Runner) withTarget(t targetRef, fn func()) {
	old := r.override
	r.override = &t
	fn()
	r.override = old
}

// kits is the free list of trial kits: Runners a finished trial released,
// each with the kernel and environment it ran, for NewRunner to reset. It
// holds at most GOMAXPROCS kits, one per trial that can run at once.
var kits struct {
	sync.Mutex
	free []*Runner
}

// NewRunner sets up the kernel, environment and injector of one run, with
// the framework defaults applied. Run drives the whole lifecycle itself;
// external drivers use the exported lifecycle — NewRunner, Deploy,
// Kernel().Run, Finish, Record, Release — to interleave their own
// measurement between the phases.
//
// A run is one turn of a trial kit: NewRunner takes a kit off the free
// list (or makes one when the list is empty) and resets its kernel
// (sim.Kernel.Reset) and environment (sift.Environment.Reset) for cfg;
// Release shuts the environment down and gives the kit back. A driver that
// never calls Release must shut the kernel down itself (defer
// r.Kernel().Shutdown()); its kit is then simply not reused.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	var envCfg sift.EnvConfig
	if cfg.Env != nil {
		envCfg = *cfg.Env
	} else if len(cfg.Apps) > 1 {
		envCfg = sift.DefaultEnvConfig("n1", "n2", "n3", "n4", "n5", "n6")
	} else {
		envCfg = sift.DefaultEnvConfig()
	}
	inj := newInjector(cfg.Model)
	if prep, ok := inj.(EnvPreparer); ok {
		prep.PrepareEnv(&cfg, &envCfg)
	}
	r := takeKit()
	k, env, rng, res, stages := r.k, r.env, r.rng, r.res, r.stages
	if k == nil {
		k, env, res = new(sim.Kernel), new(sift.Environment), new(Result)
	}
	//reesift:allow seedlint -- fixed-constant stream split of one trial seed; distinct per subsystem, pinned by every injection golden
	seed := cfg.Seed ^ 0x5eed
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng.Seed(seed) // the same stream as a new source
	}
	*res = Result{Seed: cfg.Seed, Model: cfg.Model, Target: cfg.Target}
	clear(stages)
	*r = Runner{
		cfg:    cfg,
		k:      k.Reset(sim.DefaultConfig(cfg.Seed)),
		res:    res,
		rng:    rng,
		inj:    inj,
		stages: stages[:0],
	}
	r.env = env.Reset(k, envCfg)
	if cfg.Trace != nil {
		// The recorder consumes no kernel randomness and its metric ticks
		// draw none either, so enabling tracing never changes what the
		// trial does — only what is observed about it.
		r.rec = trace.NewRecorder(*cfg.Trace)
		k.SetSink(r.rec)
		env.Log.Sink = r.rec
	}
	return r
}

// takeKit pops a released kit, or returns an empty Runner when none is
// free.
func takeKit() *Runner {
	kits.Lock()
	defer kits.Unlock()
	n := len(kits.free)
	if n == 0 {
		return new(Runner)
	}
	r := kits.free[n-1]
	kits.free[n-1] = nil
	kits.free = kits.free[:n-1]
	return r
}

// Release ends the run: it shuts the environment down
// (sift.Environment.Shutdown: the kernel, and every envelope box back to
// the cluster's free list) and gives the Runner, with its kernel and
// environment, back to the free list for a later NewRunner to reset. Until that happens the kernel and environment stay
// readable, so a driver that runs its trials one at a time may still read
// the environment of the trial it just released; nothing reached through
// the Runner may be written after Release. A kernel a process outlived
// Shutdown on (a process that would not unwind) is not reused; a second
// Release is a no-op.
func (r *Runner) Release() {
	if r.released {
		return
	}
	r.released = true
	r.env.Shutdown()
	if r.k.LiveProcs() > 0 {
		return
	}
	kits.Lock()
	if len(kits.free) < runtime.GOMAXPROCS(0) {
		kits.free = append(kits.free, r)
	}
	kits.Unlock()
}

// deploy installs the SIFT environment, submits the applications, and
// arms the injector. It returns the submission handles the classifier
// reads after the run.
func (r *Runner) deploy() []*sift.AppHandle {
	r.env.Setup()
	var handles []*sift.AppHandle
	for _, app := range r.cfg.Apps {
		handles = append(handles, r.env.Submit(app, r.cfg.SubmitAt))
	}
	remaining := len(handles)
	r.env.AppDoneHook = func(sift.AppID) {
		remaining--
		if remaining == 0 {
			r.k.Stop()
		}
	}
	switch {
	case r.cfg.Arm != nil:
		r.cfg.Arm(r)
	case r.inj != nil && r.cfg.Target != TargetNone:
		r.inj.Schedule(r)
	}
	r.armMetrics()
	return handles
}

// armMetrics registers the trial's gauges and schedules the
// deterministic sim-time sampling tick. The tick is a plain kernel
// event that reads counters and reschedules itself — it draws no
// randomness, so the relative order of the trial's own events (and
// therefore its classification) is identical with sampling on or off.
func (r *Runner) armMetrics() {
	if r.rec == nil {
		return
	}
	every := r.rec.Options().MetricsEvery
	if every <= 0 {
		return
	}
	reg := &trace.Metrics{}
	reg.Register("events-fired", func() int64 { return int64(r.k.EventsFired()) })
	reg.Register("messages-sent", func() int64 { return int64(r.k.MessagesSent()) })
	reg.Register("queue-depth", func() int64 { return int64(r.k.QueueDepth()) })
	reg.Register("log-entries", func() int64 { return int64(r.env.Log.Len()) })
	reg.Register("detections", func() int64 { return int64(len(r.env.Log.Detections)) })
	reg.Register("recoveries", func() int64 { return int64(len(r.env.Log.Recoveries)) })
	reg.Register("injections", func() int64 { return int64(r.res.Injected) })
	var tick func()
	tick = func() {
		reg.Sample(r.k.Now(), r.rec)
		r.k.Schedule(every, tick)
	}
	r.k.Schedule(every, tick)
}

// Deploy installs the SIFT environment, submits the applications, and
// arms the injector (or the Config's Arm hook). External drivers call it
// once, before Kernel().Run.
func (r *Runner) Deploy() []*sift.AppHandle { return r.deploy() }

// Finish extracts the run classification from the environment log.
// External drivers call it once, after Kernel().Run returns, and may
// adjust the Result before Record.
func (r *Runner) Finish(handles []*sift.AppHandle) { r.finish(handles) }

// Settle arranges for fn to adjust the run's Result once Finish has
// classified it, before Record seals it: a long-horizon driver's
// measurement and reclassification (internal/chaos). Call it from the
// Config's Arm hook.
func (r *Runner) Settle(fn func(*Result)) { r.settle = fn }

// Record folds the run's Result into every census listed in the
// Config. Run does this implicitly; external drivers call it last,
// after any Result adjustments, so the tallies see the final
// classification — which is also why the trace snapshot lives here:
// the chaos driver's Settle step reclassifies SystemFailure at the end
// of Finish, and the breach bundle must freeze the final verdict, not
// the interim one.
func (r *Runner) Record() {
	r.snapshotTrace()
	record(&r.cfg, r.res)
}

// snapshotTrace seals the run's trace products into the Result: the
// stream digest and count always; on a system-failure classification a
// terminal breach record and — when the trace options name a bundle
// directory — a self-contained JSONL repro bundle.
func (r *Runner) snapshotTrace() {
	if r.rec == nil {
		return
	}
	if r.res.SystemFailure {
		// The breach record is part of the digested stream on every
		// traced run (bundled or not), so a replay without a bundle
		// directory still reproduces the recorded digest.
		if r.rec.Enabled() {
			r.rec.Emit(trace.Record{At: r.k.Now(), Kind: trace.KindBreach,
				Op: r.res.SysMode.String(), Detail: r.res.Class.String()})
		}
	}
	r.res.TraceDigest = r.rec.Digest()
	r.res.TraceRecords = r.rec.Total()
	opts := r.rec.Options()
	if !r.res.SystemFailure || opts.Dir == "" {
		return
	}
	var nodes []string
	for _, n := range r.k.Nodes() {
		nodes = append(nodes, n.Name())
	}
	b := &trace.Bundle{
		Scenario: opts.Scenario,
		Campaign: opts.Campaign,
		Cell:     opts.Cell,
		Run:      opts.Run,
		Seed:     r.cfg.Seed,
		BaseSeed: opts.BaseSeed,
		Model:    r.cfg.Model.String(),
		Target:   r.cfg.Target.String(),
		Nodes:    nodes,
		Breach:   r.res.SysMode.String(),
		Verdict: trace.Verdict{
			SystemFailure: r.res.SystemFailure,
			SysMode:       r.res.SysMode.String(),
			Failed:        r.res.Failed,
			Class:         r.res.Class.String(),
			Recovered:     r.res.Recovered,
			Done:          r.res.Done,
			Injections:    r.res.Injected,
			SimTime:       r.res.SimTime,
			EventsFired:   r.res.EventsFired,
		},
		TraceDigest:  r.res.TraceDigest,
		TraceTotal:   r.res.TraceRecords,
		Buffer:       opts.Buffer,
		MetricsEvery: opts.MetricsEvery,
		Meta:         opts.Meta,
		Records:      r.rec.Records(),
	}
	path, err := trace.WriteBundle(opts.Dir, b)
	if err != nil {
		// A full disk or bad directory must not fail the campaign — the
		// classification stands; only the artifact is lost.
		return
	}
	r.res.BreachBundle = path
	if opts.OnBundle != nil {
		opts.OnBundle(path)
	}
}

// Kernel exposes the run's simulation kernel (external drivers schedule
// arrivals on it and own its shutdown).
func (r *Runner) Kernel() *sim.Kernel { return r.k }

// Env exposes the run's SIFT environment (external drivers read its
// event log for measurement).
func (r *Runner) Env() *sift.Environment { return r.env }

// Result exposes the run's mutable result for external drivers; it is
// fully populated only after Finish.
func (r *Runner) Result() *Result { return r.res }

// RunConfig returns the run's effective configuration (defaults
// applied).
func (r *Runner) RunConfig() Config { return r.cfg }

// NoteInjections records n error insertions at virtual time at on
// behalf of an external driver whose faults bypass the injector registry
// (the chaos outage waves crash nodes directly).
func (r *Runner) NoteInjections(at time.Duration, n int) {
	r.recordInjections(at, n)
	if n > 0 {
		r.res.Activated = true
	}
}

// FireStage fires one registered error model against a stage target at
// virtual time at — the continuous-arrival analogue of the compound
// coordinator's arming. It must be called in kernel context. Injector
// instances are cached per distinct stage, so stateful (interval) models
// accumulate across arrivals and their Finishers run once, during
// Finish. It reports false when the stage model is not composable (does
// not implement Firer).
func (r *Runner) FireStage(stage CompoundStage, at time.Duration) bool {
	var cached *firedStage
	for _, s := range r.stages {
		if s.stage == stage {
			cached = s
			break
		}
	}
	if cached == nil {
		f, ok := newInjector(stage.Model).(Firer)
		if !ok {
			return false
		}
		cached = &firedStage{stage: stage, inj: f}
		r.stages = append(r.stages, cached)
	}
	r.withTarget(targetRef{kind: stage.Target, rank: stage.Rank}, func() {
		cached.inj.Fire(r, at)
	})
	return true
}

// drawAt draws the injection time uniformly from [start, start+window)
// and schedules fire there. It is the scheduling idiom shared by every
// model.
func (r *Runner) drawAt(start, window time.Duration, fire func(at time.Duration)) {
	at := start + time.Duration(r.rng.Int63n(int64(window)))
	r.k.Schedule(at, func() { fire(at) })
}

// targetAID returns the ARMOR AID under injection (invalid for app
// targets).
func (r *Runner) targetAID() core.AID { return r.aidOfRef(r.target()) }

// aidOfRef resolves a target reference to its ARMOR AID.
func (r *Runner) aidOfRef(t targetRef) core.AID {
	switch t.kind {
	case TargetFTM:
		return sift.AIDFTM
	case TargetHeartbeat:
		return sift.AIDHeartbeat
	case TargetExecArmor:
		if len(r.cfg.Apps) > 0 {
			return sift.AIDExec(r.cfg.Apps[0].ID, t.rank)
		}
	}
	return core.InvalidAID
}

// pid resolves the target's current process.
func (r *Runner) pid() sim.PID { return r.pidOfRef(r.target()) }

// pidOfRef resolves a target reference's current process. Injectors that
// outlive their arming scope (the message fault models) capture the ref
// once and re-resolve the pid per use, so a recovered (re-spawned)
// target stays covered.
func (r *Runner) pidOfRef(t targetRef) sim.PID {
	if t.kind == TargetApp {
		if len(r.cfg.Apps) == 0 {
			return sim.NoPID
		}
		return r.env.AppProc(r.cfg.Apps[0].ID, t.rank)
	}
	return r.env.ProcOf(r.aidOfRef(t))
}

// mem resolves the target's simulated memory image.
func (r *Runner) mem() *memsim.Memory {
	t := r.target()
	if t.kind == TargetApp {
		if len(r.cfg.Apps) == 0 {
			return nil
		}
		return r.env.AppMem(r.cfg.Apps[0].ID, t.rank)
	}
	armor := r.env.ArmorOf(r.aidOfRef(t))
	if armor == nil {
		return nil
	}
	return armor.Mem()
}

// appAlreadyDone reports whether the injection subject has completed (a
// drawn injection time past completion inserts nothing, as in the paper).
func (r *Runner) appAlreadyDone() bool {
	if len(r.cfg.Apps) == 0 {
		return true
	}
	h := r.env.Handle(r.cfg.Apps[0].ID)
	return h == nil || h.Done
}

// targetFailed reports whether the target has failed at any point: the
// repeated-injection models stop at the *first* induced failure
// (Section 4.1), even if the environment has already recovered the target
// by the time the injector looks again.
func (r *Runner) targetFailed() bool {
	if r.cfg.Target == TargetApp {
		for _, d := range r.env.Log.AppDetections {
			if len(r.cfg.Apps) > 0 && d.App == r.cfg.Apps[0].ID {
				return true
			}
		}
	} else {
		aid := r.targetAID()
		for _, d := range r.env.Log.Detections {
			if d.ID == aid {
				return true
			}
		}
	}
	// Live probe for failures not yet detected by the environment
	// (e.g. a hang before its heartbeat round).
	pid := r.pid()
	if pid == sim.NoPID {
		return false
	}
	if !r.k.Alive(pid) {
		return true
	}
	return r.k.Suspended(pid)
}

// recordInjection notes one error insertion in the result, stamping the
// first insertion's time.
func (r *Runner) recordInjection(at time.Duration) { r.recordInjections(at, 1) }

// recordInjections notes n error insertions at once (bit-flip bursts,
// message-interval tallies). Activation is the caller's call: insertion
// does not imply the error manifested. InjectedAt keeps the earliest
// insertion time regardless of recording order — the message-interval
// models tally in Finish, after any later stage already recorded.
func (r *Runner) recordInjections(at time.Duration, n int) {
	if n <= 0 {
		return
	}
	if r.res.Injected == 0 || at < r.res.InjectedAt {
		r.res.InjectedAt = at
	}
	r.res.Injected += n
	if r.k.TraceOn() {
		r.k.Emit(trace.Record{At: at, Kind: trace.KindInjectFire,
			Op: r.cfg.Model.String(), A: int64(n)})
	}
}

// finish extracts the run classification from the environment log.
func (r *Runner) finish(handles []*sift.AppHandle) {
	if fin, ok := r.inj.(Finisher); ok {
		fin.Finish(r)
	}
	for _, s := range r.stages { // FireStage-armed models, first-use order
		if fin, ok := s.inj.(Finisher); ok {
			fin.Finish(r)
		}
	}
	res := r.res
	env := r.env
	res.EventsFired = r.k.EventsFired()
	res.SimTime = r.k.Now()
	if mem := r.mem(); mem != nil {
		res.Activated = res.Activated || mem.Activated > 0
	}

	// Failure observation and classification for the target.
	if r.cfg.Target == TargetApp {
		for _, d := range env.Log.AppDetections {
			if len(r.cfg.Apps) > 0 && d.App == r.cfg.Apps[0].ID {
				res.Failed = true
				res.Class = classify(d.Reason, d.Hang)
				break
			}
		}
		for _, rec := range env.Log.AppRecoveries {
			if len(r.cfg.Apps) > 0 && rec.App == r.cfg.Apps[0].ID {
				res.Recovered = true
				res.RecoveryTime = rec.RestartedAt - rec.DetectedAt
				break
			}
		}
	} else {
		aid := r.targetAID()
		for _, d := range env.Log.Detections {
			if d.ID == aid {
				res.Failed = true
				res.Class = classify(d.Reason, d.Hang)
				if strings.HasPrefix(d.Reason, core.ReasonAssertion) {
					res.AssertionFired = true
				}
				break
			}
		}
		for _, rec := range env.Log.Recoveries {
			if rec.ID == aid {
				res.Recovered = true
				res.RecoveryTime = rec.RestoredAt - rec.DetectedAt
				break
			}
		}
	}
	// Heap-data injections can trip assertions without our target
	// bookkeeping (e.g. via Touch); scan all FTM detections.
	for _, d := range env.Log.Detections {
		if strings.HasPrefix(d.Reason, core.ReasonAssertion) {
			res.AssertionFired = true
		}
	}
	// The daemon's invalid-destination check is the paper's "too late"
	// detection: corrupted node_mgmt data yields the default daemon ID
	// of zero, the FTM sends to it unchecked, and the error is caught
	// only at the daemon — after it has already escaped the FTM.
	if env.Log.Count(sift.LogInvalidDestination) > 0 {
		res.AssertionFired = true
	}
	// Recovery-subsystem observables: boot-agent daemon reinstalls and
	// FTM migrations off its configured node.
	res.DaemonReinstalls = env.Log.Count(sift.LogDaemonReinstalled)
	res.FTMMigrations = env.Log.Count(sift.LogFTMMigrated)
	// Epoch-reconciliation observables: superseded incarnations evicted
	// (stand-downs) and stale-epoch rejections. A stood-down recoverer
	// (FTM or Heartbeat ARMOR) marks a reconciled split brain.
	res.StandDowns = env.Log.Count(sift.LogArmorStoodDown)
	res.SupersededEpochs = env.Log.Count(sift.LogInstallRefusedStale) +
		env.Log.Count(sift.LogStaleSenderDropped)
	for e := range env.Log.All(sift.LogArmorStoodDown) {
		if id := e.AID(); id == sift.AIDFTM || id == sift.AIDHeartbeat {
			res.StaleRecovererStoodDown = true
		}
	}

	// Application measurements.
	if len(handles) > 0 {
		h := handles[0]
		res.Done = h.Done
		res.AppRestarts = h.Restarts
		if h.Done {
			res.Perceived = h.DoneAt - h.SubmittedAt
		}
		if start, ok := env.Log.First(sift.LogAppStarted); ok {
			if end, ok2 := env.Log.Last(sift.LogAppRankExit); ok2 {
				res.Actual = end.At - start.At
			}
		}
		if r.cfg.Target != TargetApp && h.Restarts > 0 {
			res.Correlated = true
		}
	}
	res.PerApp = make(map[sift.AppID]AppMeasure, len(handles))
	for _, h := range handles {
		m := AppMeasure{Done: h.Done, Restarts: h.Restarts}
		if h.Done {
			m.Perceived = h.DoneAt - h.SubmittedAt
		}
		var startAt, endAt time.Duration
		haveStart, haveEnd := false, false
		for e := range env.Log.All(sift.LogAppStarted) {
			if e.App() == h.App.ID {
				startAt, haveStart = e.At, true
				break
			}
		}
		for e := range env.Log.All(sift.LogAppRankExit) {
			if e.App() == h.App.ID {
				endAt, haveEnd = e.At, true
			}
		}
		if haveStart && haveEnd {
			m.Actual = endAt - startAt
		}
		res.PerApp[h.App.ID] = m
	}
	allDone := true
	for _, h := range handles {
		if !h.Done {
			allDone = false
		}
	}
	if !allDone {
		res.SystemFailure = true
		res.SysMode = r.systemFailureMode()
	}
	if r.cfg.CheckVerdict != nil {
		res.Verdict = r.cfg.CheckVerdict(r.k.SharedFS())
	}
	if r.settle != nil {
		r.settle(res)
	}
}

// systemFailureMode locates the phase that broke (Table 8 columns).
func (r *Runner) systemFailureMode() SystemFailureMode {
	log := r.env.Log
	nodes := len(r.env.Config().Nodes)
	if log.Count(sift.LogDaemonRegistered) < nodes {
		return SysRegisterDaemons
	}
	ranks := 2
	if len(r.cfg.Apps) > 0 {
		ranks = r.cfg.Apps[0].Ranks
	}
	execs := 0
	for e := range log.All(sift.LogArmorInstalled) {
		if e.ArmorKind() == sift.KindExecution {
			execs++
		}
	}
	if execs < ranks {
		return SysInstallExecArmors
	}
	if _, started := log.First(sift.LogAppStarted); !started {
		return SysStartApplication
	}
	// Did every rank of the final incarnation exit normally?
	exits := log.Count(sift.LogAppRankExit)
	if exits >= ranks {
		return SysUninstallAfterCompletion
	}
	return SysAppNotCompleted
}
