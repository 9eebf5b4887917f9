// Package chaos turns the one-shot injector registry into continuous
// fault arrival processes: background error insertions driven by the
// simulation clock over long horizons (simulated hours or days), with
// the sustained-operation measurements the paper's availability analysis
// (Section 7, reproduced analytically in internal/san) is about —
// service availability, the empirical MTTR distribution, and the time to
// the first unrecoverable state.
//
// A chaos trial is an ordinary inject run stretched out: the Runner
// builds the same cluster and SIFT environment from the seed, but
// instead of one scheduled injection, an arrival process keeps firing
// registered error models through Runner.FireStage until the horizon.
// Four deterministic processes are provided:
//
//	Poisson        memoryless arrivals (exponential inter-arrival times)
//	Bursts         Poisson-spaced trains of closely spaced insertions
//	RollingOutage  multi-node outage waves sweeping the cluster faster
//	               than the node restart window
//	DoubleFault    Poisson primaries with a second stage fired a short
//	               lag later only while a recovery is in flight — the
//	               crash-during-recovery correlated fault, sought on
//	               purpose
//
// All randomness derives from the run seed through the campaign seed
// stream (campaign.DeriveSeed with a per-process identity), so a trial
// is a pure function of its seed: the same availability figures, the
// same arrival log, at any campaign worker count.
//
// Availability is observed from the outside, through a beat convention:
// the built-in relay service (ServiceApp) sends one progress-indicator
// update per period and logs a BeatKind beat after each acknowledged
// update. Gaps between consecutive beats in excess of the period are down
// intervals — this sees both failure/repair cycles
// (process dead until restarted) and blocked time (the SIFT interface
// retransmitting into a dead Execution ARMOR), the two components of the
// SAN model's AppUnavailability prediction.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"reesift/internal/campaign"
	"reesift/internal/inject"
	"reesift/internal/sift"
)

// Process selects the arrival process shape.
type Process int

// Arrival processes.
const (
	// Poisson fires the primary stage with exponential inter-arrival
	// times of mean MeanBetween.
	Poisson Process = iota + 1
	// Bursts fires trains of BurstSize primary insertions BurstSpacing
	// apart; train starts are Poisson with mean MeanBetween.
	Bursts
	// RollingOutage crashes WaveNodes cluster nodes per wave,
	// WaveSpacing apart — faster than the node restart window, so
	// outages overlap. Wave starts are Poisson with mean MeanBetween,
	// and successive waves continue around the node ring.
	RollingOutage
	// DoubleFault fires Poisson primaries and, SecondLag after each,
	// fires the Second stage if (and only if) a recovery is in flight.
	DoubleFault
)

// String names the process for seed-stream identities and traces.
func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case Bursts:
		return "bursts"
	case RollingOutage:
		return "rolling-outage"
	case DoubleFault:
		return "double-fault"
	}
	return fmt.Sprintf("Process(%d)", int(p))
}

// Default spec values.
const (
	// DefaultServicePeriod is the relay service's beat period.
	DefaultServicePeriod = 5 * time.Second
	// DefaultDownGrace is slack added to the beat period before a gap
	// counts as a down interval. Normal acknowledgement jitter is ~1 ms;
	// real blocked beats track the remaining ARMOR recovery time
	// (hundreds of milliseconds), so 50 ms separates them cleanly.
	DefaultDownGrace = 50 * time.Millisecond
	// DefaultUnrecoverableAfter is how long the terminal beat silence
	// must last to classify the trial as unrecoverable.
	DefaultUnrecoverableAfter = 10 * time.Minute
	// DefaultBurstSize and DefaultBurstSpacing shape burst trains.
	DefaultBurstSize    = 3
	DefaultBurstSpacing = 2 * time.Second
	// DefaultWaveSpacing is the delay between node crashes within an
	// outage wave.
	DefaultWaveSpacing = 5 * time.Second
	// DefaultSecondLag is the double-fault stage lag — inside the SIFT
	// recovery window (ARMOR reinstallation takes ~450 ms).
	DefaultSecondLag = 250 * time.Millisecond
	// DefaultMaxEvents caps the arrival events recorded per trial.
	DefaultMaxEvents = 1000
)

// Spec describes one continuous arrival process and the measurement
// conventions of its trials. The zero value is not runnable: Process,
// Horizon, and MeanBetween are required. The primary stage the process
// fires is the surrounding inject.Config's Model/Target/Rank.
type Spec struct {
	// Process selects the arrival shape (required).
	Process Process
	// Horizon is the trial's simulated length (required; hours to days).
	Horizon time.Duration
	// MeanBetween is the mean inter-arrival time: between insertions
	// (Poisson, DoubleFault), between train starts (Bursts), or between
	// wave starts (RollingOutage). Required.
	MeanBetween time.Duration
	// BurstSize and BurstSpacing shape Bursts trains (defaults 3, 2s).
	BurstSize    int
	BurstSpacing time.Duration
	// WaveSpacing is the in-wave delay between node crashes (default
	// 5s); WaveNodes is the number of nodes per wave (default: the
	// whole cluster).
	WaveSpacing time.Duration
	WaveNodes   int
	// Second is the DoubleFault stage fired SecondLag (default 250ms)
	// after each primary, conditioned on an in-flight recovery.
	Second    *inject.CompoundStage
	SecondLag time.Duration
	// ServicePeriod is the beat period of the relay service the façade
	// builds for a trial (default 5s). The beat-gap measurement judges
	// each gap against the period the beating service itself logs.
	ServicePeriod time.Duration
	// DownGrace is the beat-gap slack before a gap counts as downtime
	// (default 500ms).
	DownGrace time.Duration
	// UnrecoverableAfter classifies the trial unrecoverable when the
	// final beat silence exceeds it (default 10min).
	UnrecoverableAfter time.Duration
	// MaxEvents caps recorded arrival events (default 1000; negative
	// records none).
	MaxEvents int
}

// withDefaults fills the optional fields.
func (sp Spec) withDefaults() Spec {
	if sp.BurstSize <= 0 {
		sp.BurstSize = DefaultBurstSize
	}
	if sp.BurstSpacing <= 0 {
		sp.BurstSpacing = DefaultBurstSpacing
	}
	if sp.WaveSpacing <= 0 {
		sp.WaveSpacing = DefaultWaveSpacing
	}
	if sp.SecondLag <= 0 {
		sp.SecondLag = DefaultSecondLag
	}
	if sp.ServicePeriod <= 0 {
		sp.ServicePeriod = DefaultServicePeriod
	}
	if sp.DownGrace <= 0 {
		sp.DownGrace = DefaultDownGrace
	}
	if sp.UnrecoverableAfter <= 0 {
		sp.UnrecoverableAfter = DefaultUnrecoverableAfter
	}
	if sp.MaxEvents == 0 {
		sp.MaxEvents = DefaultMaxEvents
	}
	return sp
}

// Validate checks a spec against the primary stage it will fire. It
// exists for eager validation at the façade: the arrival processes run
// inside kernel callbacks with no error path, so a bad spec would
// otherwise surface as a silently fault-free (or panicking) trial.
func Validate(sp Spec, primary inject.CompoundStage) error {
	d := sp.withDefaults()
	switch d.Process {
	case Poisson, Bursts, RollingOutage, DoubleFault:
	default:
		return fmt.Errorf("chaos: unknown arrival process %d", int(sp.Process))
	}
	if d.Horizon <= 0 {
		return fmt.Errorf("chaos: Horizon is required (a chaos trial has no natural end)")
	}
	if d.MeanBetween <= 0 {
		return fmt.Errorf("chaos: MeanBetween is required")
	}
	if d.MeanBetween >= d.Horizon {
		return fmt.Errorf("chaos: MeanBetween %v is not below Horizon %v (no arrivals would fire)", d.MeanBetween, d.Horizon)
	}
	if d.Process != RollingOutage {
		if err := validStage(primary, "primary"); err != nil {
			return err
		}
	}
	if d.Process == DoubleFault {
		if d.Second == nil {
			return fmt.Errorf("chaos: DoubleFault requires a Second stage")
		}
		if err := validStage(*d.Second, "second"); err != nil {
			return err
		}
	} else if sp.Second != nil {
		return fmt.Errorf("chaos: Second stage is only meaningful for the DoubleFault process")
	}
	return nil
}

// validStage checks that one stage is continuously composable.
func validStage(stage inject.CompoundStage, role string) error {
	if !inject.Registered(stage.Model) {
		return fmt.Errorf("chaos: %s stage model %d is not registered", role, int(stage.Model))
	}
	if !inject.CanFire(stage.Model) {
		return fmt.Errorf("chaos: model %s cannot be a %s arrival stage (no fixed-time insertion)", stage.Model, role)
	}
	if stage.Target == inject.TargetNone {
		return fmt.Errorf("chaos: %s stage %s has no target", role, stage.Model)
	}
	if netInterval(stage.Model) {
		return fmt.Errorf("chaos: model %s cannot be a continuous arrival stage (the kernel carries a single message-fault interval, and repeated arrivals would overlap it)", stage.Model)
	}
	return nil
}

// netInterval mirrors inject's single-fault-slot constraint for the
// probabilistic message-fault models, whose repeated arrivals would
// overlap in the kernel's single fault slot and double-count their
// insertions. The partition models are deliberately NOT rejected: their
// heal is generation-guarded, so a repeated partition/heal cycle simply
// replaces any still-active interval — exactly the fault process a
// flapping switch port produces.
func netInterval(m inject.Model) bool {
	return m == inject.ModelMsgDrop || m == inject.ModelMsgCorrupt
}

// driver runs one trial's arrival process and measurement. It lives on
// the Runner it arms and is touched only from kernel context (plus the
// host-side measure after the kernel stops).
type driver struct {
	r       *inject.Runner
	spec    Spec
	primary inject.CompoundStage
	rng     *rand.Rand

	arrivals int
	events   []inject.ArrivalEvent
	// fold is the observed application's beat record, folded by the
	// trial's log as beats arrive.
	fold sift.BeatFold
}

// newDriver derives the process's private seed stream from the run seed
// and the process identity, so distinct processes (and distinct campaign
// cells) draw from pairwise-disjoint streams.
func newDriver(r *inject.Runner, sp Spec, primary inject.CompoundStage) *driver {
	seed := campaign.DeriveSeed(r.RunConfig().Seed, "chaos/"+sp.Process.String(), 0)
	return &driver{
		r:       r,
		spec:    sp,
		primary: primary,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Trial runs one long-horizon chaos trial: an inject run with the arrival
// process armed in place of the one-shot injector, whose beat measurement
// settles the Result before the censuses record it. The spec is assumed
// validated (Validate); Trial is deterministic in cfg.Seed.
func Trial(cfg inject.Config, spec Spec) inject.Result {
	spec = spec.withDefaults()
	primary := inject.CompoundStage{Model: cfg.Model, Target: cfg.Target, Rank: cfg.Rank}
	// The kernel runs to the horizon: the relay service never completes,
	// so the horizon is the trial's only clock limit.
	cfg.Timeout = spec.Horizon
	cfg.Arm = func(r *inject.Runner) {
		d := newDriver(r, spec, primary)
		d.arm()
		r.Settle(d.settle)
	}
	return inject.Run(cfg)
}

// settle folds the beat measurement into the classified Result. It is a
// long-horizon reclassification too: the one-shot verdict "application
// did not complete" is the relay service's normal state, so a chaos trial
// is a system failure exactly when the service never came back.
func (d *driver) settle(res *inject.Result) {
	st := d.measure()
	res.Chaos = &st
	res.SystemFailure = st.Unrecoverable
	if !st.Unrecoverable {
		res.SysMode = inject.SysNone
	}
}
