package inject

import (
	"fmt"
	"sort"
	"time"

	"reesift/internal/sift"
)

// Model selects the error model (paper Table 2, plus extensions).
type Model int

// Error models. The paper's seven (Table 2) come first; the extension
// models grow the fault surface beyond the paper's campaigns.
const (
	ModelNone Model = iota
	ModelSIGINT
	ModelSIGSTOP
	ModelRegister
	ModelText
	ModelHeap
	ModelHeapData
	ModelAppHeap
	ModelMsgDrop
	ModelMsgCorrupt
	ModelCheckpoint
	ModelNodeCrash
	ModelSharedDisk
	ModelPartition
	ModelCompound
	// ModelPartitionSym is the symmetric (two-sided) partition variant;
	// it sits after ModelCompound so the paper-era model numbering in
	// recorded results stays stable.
	ModelPartitionSym
)

// Injector is one error model's insertion strategy. The Runner owns the
// run lifecycle — cluster construction, scheduling, outcome
// classification, tallying — and hands the injector a single hook to arm
// itself on the simulation set up for the run. Injectors draw all randomness
// from the Runner's RNG so a run stays a pure function of its seed.
type Injector interface {
	// Schedule arms the model's first insertion on the Runner's kernel.
	// It is called once, after the environment is deployed and before
	// the kernel runs; Target is guaranteed not to be TargetNone.
	Schedule(r *Runner)
}

// EnvPreparer is an optional Injector extension for models that must
// shape the environment before the cluster is built (the register/text
// models attach simulated memory images to their target).
type EnvPreparer interface {
	PrepareEnv(cfg *Config, envCfg *sift.EnvConfig)
}

// Finisher is an optional Injector extension for models that fold
// post-run observations into the Result before the Runner classifies the
// outcome (the message fault models read the kernel's fault counters).
type Finisher interface {
	Finish(r *Runner)
}

// Firer is an optional Injector extension for models that can insert
// their error at a caller-chosen instant instead of drawing one — the
// contract the compound coordinator composes on. Fire runs in kernel
// context at virtual time at; the model's own Schedule is typically
// drawAt wired to the same method.
type Firer interface {
	Fire(r *Runner, at time.Duration)
}

// modelEntry is one registered error model.
type modelEntry struct {
	name    string
	factory func() Injector
}

// models is the injector registry. It is written only from package init
// functions (each model file self-registers) and read-only afterwards,
// so no locking is needed.
var models = make(map[Model]modelEntry)

// RegisterModel adds an error model to the registry. A nil factory
// registers a name-only model (ModelNone). It panics on a duplicate or
// an empty name — registration happens at init time, where a loud
// failure beats a silently shadowed model.
func RegisterModel(m Model, name string, factory func() Injector) {
	if name == "" {
		panic(fmt.Sprintf("inject: RegisterModel(%d): empty name", int(m)))
	}
	if _, dup := models[m]; dup {
		panic(fmt.Sprintf("inject: RegisterModel(%d, %q): duplicate model", int(m), name))
	}
	models[m] = modelEntry{name: name, factory: factory}
}

// Registered reports whether m names a registered error model.
func Registered(m Model) bool {
	_, ok := models[m]
	return ok
}

// CanFire reports whether m's registered injector supports fixed-time
// insertion (implements Firer) — the contract both the compound
// coordinator and the chaos arrival processes compose on. Validators use
// it to reject non-composable stage models eagerly.
func CanFire(m Model) bool {
	_, ok := newInjector(m).(Firer)
	return ok
}

// Models returns every registered model in ascending order (ModelNone
// first). Façade consumers use it to enumerate the available error
// models without hard-coding the set.
func Models() []Model {
	out := make([]Model, 0, len(models))
	for m := range models {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newInjector builds the registered injector for a model (nil for
// ModelNone, name-only registrations, and unknown models — the Runner
// then simply performs a fault-free run).
func newInjector(m Model) Injector {
	e, ok := models[m]
	if !ok || e.factory == nil {
		return nil
	}
	return e.factory()
}

// String names the model from the registry.
func (m Model) String() string {
	if e, ok := models[m]; ok {
		return e.name
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

func init() {
	RegisterModel(ModelNone, "baseline", nil)
}
