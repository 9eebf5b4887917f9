package reesift

import (
	"fmt"
	"slices"
	"time"

	"reesift/internal/chaos"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
)

// Model selects the error model of a fault-injection run (paper
// Table 2).
type Model = inject.Model

// Error models: the paper's Table 2 set plus the extension models
// (message omission/corruption, checkpoint-store corruption, whole-node
// crash, shared-store corruption, one-sided partition, and the compound
// coordinator that arms two models with a controlled lag).
const (
	ModelNone       = inject.ModelNone
	ModelSIGINT     = inject.ModelSIGINT
	ModelSIGSTOP    = inject.ModelSIGSTOP
	ModelRegister   = inject.ModelRegister
	ModelText       = inject.ModelText
	ModelHeap       = inject.ModelHeap
	ModelHeapData   = inject.ModelHeapData
	ModelAppHeap    = inject.ModelAppHeap
	ModelMsgDrop    = inject.ModelMsgDrop
	ModelMsgCorrupt = inject.ModelMsgCorrupt
	ModelCheckpoint = inject.ModelCheckpoint
	ModelNodeCrash  = inject.ModelNodeCrash
	ModelSharedDisk = inject.ModelSharedDisk
	ModelPartition  = inject.ModelPartition
	ModelCompound   = inject.ModelCompound
	// ModelPartitionSym is the symmetric (two-sided) partition variant:
	// both directions of the target node's traffic are dropped until the
	// scheduled heal — the classic split brain.
	ModelPartitionSym = inject.ModelPartitionSym
)

// CompoundSpec and CompoundStage describe a ModelCompound run: two
// registered error models armed with a controlled lag (the paper's
// Section 6 correlated failures, reproduced on purpose). CompoundDefault
// is the Section 6 pair: the Heartbeat ARMOR suspended, then the FTM's
// node crashed under it.
type (
	CompoundSpec  = inject.CompoundSpec
	CompoundStage = inject.CompoundStage
)

// CompoundDefault returns the default compound pairing (see
// inject.CompoundDefault).
func CompoundDefault() CompoundSpec { return inject.CompoundDefault() }

// Models returns every registered error model in ascending order
// (ModelNone first). The set is registry-driven: a model added to
// internal/inject shows up here without façade changes.
func Models() []Model { return inject.Models() }

// Target selects the process under injection.
type Target = inject.TargetKind

// Injection targets (the paper's four: the application plus the three
// ARMOR kinds).
const (
	TargetNone      = inject.TargetNone
	TargetApp       = inject.TargetApp
	TargetFTM       = inject.TargetFTM
	TargetExecArmor = inject.TargetExecArmor
	TargetHeartbeat = inject.TargetHeartbeat
)

// InjectionResult is one run's classified outcome.
type InjectionResult = inject.Result

// FS is the cluster-wide nonvolatile store applications write results
// to. Read returns the stored bytes without copying them, and a file an
// application wrote may share its bytes with a reference that every
// cluster in the process reads (the rover's nominal input, features and
// output). Never write what Read returns: copy it first (bytes.Clone)
// if you need to change it.
type FS = sim.FS

// Injection describes one fault-injection run driven through the façade:
// a cluster is set up from the Cluster options (on a trial kit an earlier
// run left, reset, or a new one), the applications are submitted, the
// error model fires against the target, and the outcome is classified
// exactly as the paper does.
type Injection struct {
	// Seed determines the run (cluster, application, and injection
	// draw). The seed of any WithSeed option in Cluster is ignored;
	// Seed governs.
	Seed int64
	// Model is the error model to inject.
	Model Model
	// Target is the process under injection.
	Target Target
	// Rank selects which application process / Execution ARMOR is
	// targeted (default 0).
	Rank int
	// Element names the FTM element for ModelHeapData.
	Element string
	// Apps lists the applications to run; the first is the injection
	// subject for application-targeted models.
	Apps []*AppSpec
	// Cluster configures the run's environment with the same options
	// NewCluster takes. Empty means the model's default testbed.
	Cluster []Option
	// SubmitAt is the submission time (default 5 s).
	SubmitAt time.Duration
	// Window is the interval after SubmitAt in which the injection time
	// is drawn uniformly (default: the fault-free perceived execution
	// time).
	Window time.Duration
	// RepeatEvery paces repeated-injection models (default 2 s).
	RepeatEvery time.Duration
	// Timeout is the run's system-failure deadline (default 400 s, or
	// 600 s for multi-application runs).
	Timeout time.Duration
	// NetFaultProb is the per-message fault probability while a message
	// fault model (ModelMsgDrop, ModelMsgCorrupt) is active; default
	// 0.5.
	NetFaultProb float64
	// NetFaultFor is the length of the transient network-fault interval
	// for the message fault models; default 20 s.
	NetFaultFor time.Duration
	// NodeRestartAfter is the node outage length for ModelNodeCrash;
	// default 30 s.
	NodeRestartAfter time.Duration
	// Compound describes the two correlated stages of a ModelCompound
	// run; nil selects CompoundDefault (the paper's Section 6 pair).
	Compound *CompoundSpec
	// CheckVerdict, if set, classifies the application output on the
	// shared store after the run ("correct"/"incorrect"/"missing"). It
	// may read fs but must not write the bytes fs.Read returns (see FS).
	CheckVerdict func(fs *FS) string
	// Census, if set, receives this run's tally — the attribution hook
	// for one-off runs outside a Campaign (campaigns keep their own
	// census and ignore this field).
	Census *Census
	// Arrival, when non-nil, turns the run into a long-horizon chaos
	// trial: the Model/Target/Rank become the primary stage of a
	// continuous arrival process, the run lasts Arrival.Horizon (Timeout
	// is ignored), and the result carries ChaosStats. With no Apps, the
	// chaos relay service is installed automatically.
	Arrival *Arrival
}

// Run executes the injection run. Option validation errors surface here,
// before any simulation work.
func (i Injection) Run() (InjectionResult, error) {
	cfg, err := i.config()
	if err != nil {
		return InjectionResult{}, err
	}
	if i.Arrival != nil {
		return chaos.Trial(cfg, *i.Arrival), nil
	}
	return inject.Run(cfg), nil
}

// config validates the injection and resolves it into the internal run
// configuration. It is shared by Run and by Campaign, which derives the
// per-run seed and threads its census before executing.
func (i Injection) config() (inject.Config, error) {
	if !inject.Registered(i.Model) {
		return inject.Config{}, fmt.Errorf("reesift: Injection: unknown error model %d (see Models())", int(i.Model))
	}
	switch i.Model {
	case ModelHeapData:
		if i.Target == TargetApp {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %s targets a SIFT ARMOR element, not the application (use %s for application heap errors)", ModelHeapData, ModelAppHeap)
		}
		if i.Element == "" {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %s needs Element (the FTM element to corrupt)", ModelHeapData)
		}
	case ModelCheckpoint:
		if i.Target == TargetApp {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %s targets an ARMOR's checkpoint store; applications are not microcheckpointed", ModelCheckpoint)
		}
	case ModelAppHeap:
		if i.Target != TargetApp {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %s injects into the application heap; Target must be TargetApp", ModelAppHeap)
		}
	case ModelCompound:
		if err := inject.ValidateCompound(i.Compound); err != nil {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %w", err)
		}
	}
	if i.NetFaultProb < 0 || i.NetFaultProb > 1 {
		return inject.Config{}, fmt.Errorf("reesift: Injection: NetFaultProb %v outside [0, 1]", i.NetFaultProb)
	}
	cfg := inject.Config{
		Seed:             i.Seed,
		Model:            i.Model,
		Target:           i.Target,
		Rank:             i.Rank,
		Element:          i.Element,
		Apps:             i.Apps,
		SubmitAt:         i.SubmitAt,
		Window:           i.Window,
		RepeatEvery:      i.RepeatEvery,
		Timeout:          i.Timeout,
		NetFaultProb:     i.NetFaultProb,
		NetFaultFor:      i.NetFaultFor,
		NodeRestartAfter: i.NodeRestartAfter,
		Compound:         i.Compound,
		CheckVerdict:     i.CheckVerdict,
	}
	if i.Census != nil {
		cfg.Census = []*inject.Census{i.Census}
	}
	// The run's node list: from the options when given, otherwise the
	// model's defaults — the four-node testbed, or the six-node
	// multi-application testbed when more than one app runs.
	defaultCount := 4
	if len(i.Apps) > 1 {
		defaultCount = 6
	}
	nodes := defaultNodeNames(defaultCount)
	if len(i.Cluster) > 0 {
		env, _, err := buildConfigNodes(i.Cluster, defaultCount)
		if err != nil {
			return inject.Config{}, err
		}
		cfg.Env = &env
		nodes = env.Nodes
	}
	// Chaos trials: install the relay service when no application is
	// given, and validate the arrival spec against the primary stage —
	// eagerly, because the arrival processes run inside kernel callbacks
	// with no error path.
	if i.Arrival != nil {
		if len(cfg.Apps) == 0 {
			ftm, hb := nodes[0], nodes[1%len(nodes)]
			if cfg.Env != nil {
				ftm, hb = cfg.Env.FTMNode, cfg.Env.HeartbeatNode
			}
			cfg.Apps = []*AppSpec{chaos.ServiceApp(1, serviceNode(nodes, ftm, hb), i.Arrival.ServicePeriod)}
		}
		primary := inject.CompoundStage{Model: i.Model, Target: i.Target, Rank: i.Rank}
		if err := chaos.Validate(*i.Arrival, primary); err != nil {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %w", err)
		}
	}
	for _, app := range cfg.Apps {
		if err := validateApp(app, nodes); err != nil {
			return inject.Config{}, fmt.Errorf("reesift: Injection: %w", err)
		}
	}
	return cfg, nil
}

// validateApp is the eager check Injection and Cluster.Submit share: an
// application must be placed on cluster nodes, or its ranks silently never
// launch and the run is misclassified as a system failure; and it must
// fit the FTM's records, or their assertions crash the FTM at submission
// and the application never finishes.
func validateApp(app *AppSpec, nodes []string) error {
	if app == nil {
		return fmt.Errorf("nil AppSpec")
	}
	if app.Ranks < 1 || app.Ranks > sift.MaxRanks {
		return fmt.Errorf("app %d has %d ranks, want 1 to %d", app.ID, app.Ranks, sift.MaxRanks)
	}
	if len(app.Nodes) > sift.MaxAppNodes {
		return fmt.Errorf("app %d has %d node hints, at most %d", app.ID, len(app.Nodes), sift.MaxAppNodes)
	}
	for _, n := range app.Nodes {
		if !slices.Contains(nodes, n) {
			return fmt.Errorf("app %d placed on node %q, which is not in the cluster %v", app.ID, n, nodes)
		}
	}
	return nil
}
