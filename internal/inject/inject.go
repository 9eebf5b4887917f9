// Package inject is the reproduction's NFTAPE: a framework for conducting
// error-injection campaigns against the SIFT environment and its
// applications. Following NFTAPE's design point, the control, monitoring,
// and data-collection machinery (the Runner) is separated from the error
// injectors: each error model is a self-registered Injector in its own
// file, discovered through a registry keyed by Model. The paper's Table 2
// models:
//
//	SIGINT    clean crash (kill the target process)
//	SIGSTOP   clean hang (suspend the target process)
//	Register  repeated bit flips in the modelled register file
//	Text      repeated bit flips in the modelled text segment
//	Heap      repeated bit flips in live element state
//	HeapData  one targeted non-pointer data flip in a named element
//	AppHeap   one bit flip in the application's real numeric heap
//
// plus the extension models beyond the paper's campaigns:
//
//	MsgDrop     transient message omission on the target's network traffic
//	MsgCorrupt  transient message value corruption (fail-silence violation)
//	Checkpoint  bit flips in the target's stable checkpoint image
//	NodeCrash   whole-node failure under the target, with delayed restart
//	SharedDisk  bit flips in the cluster-wide store's files (input,
//	            checkpoints, application output)
//	Partition   one-sided network partition of the target's node, with a
//	            scheduled heal
//	Compound    two registered models armed with a controlled lag (the
//	            Section 6 correlated failures, reproduced on purpose)
//
// Each run resets a simulated cluster and SIFT environment (the trial kit
// an earlier run released, or a new one) for its seed, submits the
// application, schedules the injector, runs to completion or timeout,
// and classifies the outcome exactly as the paper does: failure
// class (segmentation fault / illegal instruction / hang / assertion),
// successful recovery, correlated application failures, and system
// failures (the application cannot complete within the predefined timeout,
// or the SIFT environment cannot recognize that it completed).
package inject

import (
	"fmt"
	"time"

	"reesift/internal/memsim"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/internal/trace"
)

// Config describes one injection run.
type Config struct {
	Seed   int64
	Model  Model
	Target TargetKind
	// Rank selects which application process / Execution ARMOR is
	// targeted (default 0).
	Rank int
	// Element names the FTM element for ModelHeapData.
	Element string
	// Apps lists the application specs to run; the first is the
	// injection subject for application-targeted models.
	Apps []*sift.AppSpec
	// SubmitAt is the submission time (default 5 s).
	SubmitAt time.Duration
	// Window is the interval (relative to SubmitAt) in which the
	// injection time is drawn uniformly. A zero window defaults to the
	// expected fault-free perceived execution time.
	Window time.Duration
	// RepeatEvery paces repeated-injection models (register, text,
	// heap); default 2 s.
	RepeatEvery time.Duration
	// Timeout is the run's system-failure deadline (default 400 s, or
	// 600 s for multi-application runs).
	Timeout time.Duration
	// Env overrides the environment configuration (optional).
	Env *sift.EnvConfig
	// MemProfile overrides the register/text manifestation profile.
	MemProfile *memsim.Profile
	// NetFaultProb is the per-message fault probability while a message
	// fault model (MsgDrop, MsgCorrupt) is active; default 0.5.
	NetFaultProb float64
	// NetFaultFor is the length of the transient network-fault interval;
	// default 20 s.
	NetFaultFor time.Duration
	// NodeRestartAfter is the node outage length for ModelNodeCrash;
	// default 30 s.
	NodeRestartAfter time.Duration
	// Compound describes the two correlated stages of a ModelCompound
	// run; nil selects the paper's Section 6 pair (Heartbeat ARMOR made
	// deaf, then the FTM's node crashed under it).
	Compound *CompoundSpec
	// CheckVerdict, if set, classifies the application output on the
	// shared store after the run ("correct"/"incorrect"/"missing").
	CheckVerdict func(fs *sim.FS) string
	// Census lists the censuses this run reports to. A campaign threads
	// its own census here so its tally is exact even while other
	// campaigns run concurrently in the process.
	Census []*Census
	// Arm, when non-nil, replaces the registered injector's Schedule
	// call: deploy invokes it with the Runner after the environment is
	// built, and the hook arms whatever insertion process it wants (the
	// chaos subsystem's continuous arrival processes plug in here). The
	// Model/Target fields still describe the primary fault the hook
	// fires, so classification and reporting stay meaningful.
	Arm func(*Runner)
	// Trace, when non-nil, enables the structured trace recorder for
	// this run: the Runner wires a trace.Recorder into the kernel and
	// the environment log, schedules the metrics sampling ticks, and —
	// when the run classifies as a system failure and Trace.Dir is set —
	// snapshots a self-contained repro bundle. Nil keeps the run
	// entirely trace-free (the zero-alloc hot path).
	Trace *trace.Options
}

// CompoundStage is one arm of a compound injection: an error model and
// the target it fires against. The model must implement Firer.
type CompoundStage struct {
	Model  Model
	Target TargetKind
	Rank   int
}

// CompoundSpec arms two injectors with a controlled lag — the
// correlated multi-point faults of the paper's Section 6, reproduced on
// purpose instead of waited for. First fires at the drawn injection
// time, Second fires Lag later. At most one of the stages may be a
// network-interval model (msg-drop, msg-corrupt, partition): the kernel
// carries a single message fault model at a time.
type CompoundSpec struct {
	First  CompoundStage
	Second CompoundStage
	Lag    time.Duration
}

// CompoundDefault is the paper's Section 6 compound failure: the
// Heartbeat ARMOR is suspended (so the FTM's dedicated recoverer is
// deaf), and the FTM's node crashes five seconds later.
func CompoundDefault() CompoundSpec {
	return CompoundSpec{
		First:  CompoundStage{Model: ModelSIGSTOP, Target: TargetHeartbeat},
		Second: CompoundStage{Model: ModelNodeCrash, Target: TargetFTM},
		Lag:    5 * time.Second,
	}
}

// netInterval reports whether a model installs the kernel's (single)
// transient message fault slot.
func netInterval(m Model) bool {
	return m == ModelMsgDrop || m == ModelMsgCorrupt || m == ModelPartition || m == ModelPartitionSym
}

// ValidateCompound checks a compound spec for the constraints the
// coordinator cannot surface at run time (its Schedule hook has no
// error path, so an invalid spec would silently run fault-free): stage
// models must be registered and composable (implement Firer), compounds
// cannot nest, the lag must not be negative, and at most one stage may
// be a network-interval model — the kernel carries a single message
// fault model, so a second interval stage would displace the first and
// double-count its insertions. A nil spec is valid (CompoundDefault
// applies).
func ValidateCompound(sp *CompoundSpec) error {
	if sp == nil {
		return nil
	}
	for _, stage := range []CompoundStage{sp.First, sp.Second} {
		if stage.Model == ModelCompound {
			return fmt.Errorf("inject: compound stages cannot nest another compound")
		}
		if !Registered(stage.Model) {
			return fmt.Errorf("inject: compound stage model %d is not registered", int(stage.Model))
		}
		if _, ok := newInjector(stage.Model).(Firer); !ok {
			return fmt.Errorf("inject: model %s cannot be a compound stage (no fixed-time insertion)", stage.Model)
		}
		if stage.Target == TargetNone {
			return fmt.Errorf("inject: compound stage %s has no target (a forgotten Target would silently inject nothing)", stage.Model)
		}
	}
	if sp.Lag < 0 {
		return fmt.Errorf("inject: compound lag %v must not be negative", sp.Lag)
	}
	if netInterval(sp.First.Model) && netInterval(sp.Second.Model) {
		return fmt.Errorf("inject: at most one compound stage may be a network-interval model (%s and %s both are)",
			sp.First.Model, sp.Second.Model)
	}
	return nil
}

// Result is one run's outcome.
type Result struct {
	Seed      int64
	Model     Model
	Target    TargetKind
	Injected  int
	Activated bool
	// InjectedAt is the (first) injection time; zero when the drawn
	// time fell after the application completed and nothing was
	// injected, which the paper also observed.
	InjectedAt time.Duration

	Failed       bool
	Class        FailureClass
	Recovered    bool
	RecoveryTime time.Duration

	// Correlated reports that an injection into a SIFT process forced
	// the application to block or restart.
	Correlated  bool
	AppRestarts int

	Done          bool
	SystemFailure bool
	SysMode       SystemFailureMode

	Perceived time.Duration
	Actual    time.Duration

	// AssertionFired/AssertionSaved support Table 9: an assertion
	// detected the error, and (if saved) no system failure followed.
	AssertionFired bool

	// Verdict is the application output classification (Table 10), as
	// a string to avoid coupling to one app package: "correct",
	// "incorrect", "missing", or "" when unchecked.
	Verdict string

	// PerApp carries per-application measurements for multi-application
	// runs (Tables 11-12), keyed by AppID.
	PerApp map[sift.AppID]AppMeasure

	// DaemonReinstalls counts boot-agent daemon reinstalls on restarted
	// nodes; FTMMigrations counts FTM reinstalls that landed on a
	// different node than the one it failed on. Both are zero outside
	// the recovery subsystem's fault classes.
	DaemonReinstalls int
	FTMMigrations    int

	// StandDowns counts superseded local ARMOR incarnations that
	// daemons evicted on higher-epoch evidence — the split-brain
	// stand-down. SupersededEpochs counts stale-epoch rejections
	// (installs refused and envelopes dropped because the sending
	// incarnation was superseded). Both stay zero unless an epoch
	// conflict actually arose, so pre-epoch runs are unaffected.
	StandDowns       int
	SupersededEpochs int
	// StaleRecovererStoodDown reports that a superseded *recoverer*
	// (FTM or Heartbeat ARMOR) was among the stand-downs: the healed
	// half of a split brain reconciled instead of re-recovering in a
	// loop. It is the classification that separates "partition healed,
	// duplicate recoverer retired, run went on" from a system failure —
	// before epoched identities these runs generally WERE system
	// failures.
	StaleRecovererStoodDown bool

	// Chaos carries the long-horizon availability measurements of a
	// continuous-arrival (chaos) trial; nil for one-shot runs.
	Chaos *ChaosStats `json:",omitempty"`

	// EventsFired is the total number of kernel events this run fired;
	// SimTime is the virtual clock at shutdown. Both are deterministic
	// for a seed, and together with wall time they yield the scale
	// scenario's throughput metrics (events/sec, sim-time per wall-
	// second) without putting wall-derived numbers in pinned output.
	EventsFired uint64
	SimTime     time.Duration

	// Trace products, set only when Config.Trace enabled the recorder
	// (omitted from JSON otherwise, so untraced results are unchanged).
	// TraceDigest fingerprints the run's full structured event stream;
	// TraceRecords counts emitted records; BreachBundle is the path of
	// the repro bundle written for a system-failure run ("" when none).
	TraceDigest  string `json:",omitempty"`
	TraceRecords uint64 `json:",omitempty"`
	BreachBundle string `json:",omitempty"`
}

// ArrivalEvent is one fault arrival fired by a continuous chaos process:
// what was inserted, where, and when on the simulation clock. The chaos
// driver records them in kernel order, so the slice is deterministic for
// a seed at any worker count.
type ArrivalEvent struct {
	// At is the arrival's virtual time.
	At time.Duration
	// Model is the error model fired at this arrival.
	Model Model
	// Target is the stage target the model fired against.
	Target TargetKind
	// Node names the crashed node for outage-wave arrivals ("" for
	// process-targeted models).
	Node string `json:",omitempty"`
}

// ChaosStats is the measurement product of one long-horizon chaos trial:
// service availability, the empirical MTTR distribution, and the
// time-to-first-unrecoverable-state — the sustained-operation view the
// paper's availability model (internal/san) predicts analytically.
type ChaosStats struct {
	// Horizon is the trial's simulated length.
	Horizon time.Duration
	// Arrivals counts fault arrivals the process fired (each may insert
	// one or more errors; see Result.Injected for insertions).
	Arrivals int
	// Downs counts distinct down intervals of the observed service.
	Downs int
	// Downtime is the total down time across the measurement window.
	Downtime time.Duration
	// Availability is 1 - Downtime/window, where the window runs from
	// the service's first observed beat to the horizon.
	Availability float64
	// MTTRp50/MTTRp95/MTTRMax are percentiles of the down-interval
	// (repair time) empirical distribution; zero when Downs is zero.
	MTTRp50 time.Duration
	MTTRp95 time.Duration
	MTTRMax time.Duration
	// Unrecoverable reports that the service never came back: its final
	// down interval exceeded the spec's UnrecoverableAfter threshold and
	// ran to the horizon.
	Unrecoverable bool
	// TimeToUnrecoverable is the virtual time the terminal outage began
	// (zero when the trial stayed recoverable).
	TimeToUnrecoverable time.Duration
	// Events lists the recorded arrivals (capped by the spec's MaxEvents
	// to bound result size).
	Events []ArrivalEvent `json:",omitempty"`
	// Down holds the raw down-interval samples backing the MTTR
	// percentiles. It is excluded from JSON — long trials accumulate
	// thousands of samples — but kept in-process so campaign cells can
	// pool distributions across trials.
	Down []time.Duration `json:"-"`
}

// AppMeasure is one application's outcome within a run.
type AppMeasure struct {
	Done      bool
	Restarts  int
	Perceived time.Duration
	Actual    time.Duration
}

// withDefaults fills the unset Config fields with the framework
// defaults. NewRunner applies it, so a Config means the same thing on
// every entry path (Run, or an external driver such as internal/chaos).
func (cfg Config) withDefaults() Config {
	if cfg.SubmitAt <= 0 {
		cfg.SubmitAt = 5 * time.Second
	}
	if cfg.RepeatEvery <= 0 {
		cfg.RepeatEvery = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 400 * time.Second
		if len(cfg.Apps) > 1 {
			cfg.Timeout = 600 * time.Second
		}
	}
	if cfg.Window <= 0 {
		cfg.Window = 80 * time.Second
	}
	if cfg.NetFaultProb <= 0 {
		cfg.NetFaultProb = 0.5
	}
	if cfg.NetFaultFor <= 0 {
		cfg.NetFaultFor = 20 * time.Second
	}
	if cfg.NodeRestartAfter <= 0 {
		cfg.NodeRestartAfter = 30 * time.Second
	}
	if cfg.Model == ModelCompound && cfg.Compound == nil {
		def := CompoundDefault()
		cfg.Compound = &def
	}
	return cfg
}

// Run executes one injection run and classifies it: the Runner builds the
// cluster and SIFT environment from the seed, the Model's registered
// injector (or the Config's Arm hook) inserts the errors, and the Runner
// extracts the paper's classification from the environment log.
func Run(cfg Config) Result {
	r := NewRunner(cfg)
	defer r.Release()
	handles := r.deploy()
	r.k.Run(r.cfg.Timeout)
	r.finish(handles)
	r.Record()
	if fn := observe; fn != nil {
		fn(cfg, r)
	}
	return *r.res
}

// observe, when set, is handed the configuration and the Runner of every
// run Run completes, before the Runner is released; the kit reuse test
// replays campaigns' trials through it.
var observe func(Config, *Runner)
