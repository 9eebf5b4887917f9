package inject

// ObserveTrials hands the configuration and the Runner of every run Run
// completes to fn, before the Runner is released, until the returned
// function is called. Runs must not be in flight while either is called.
func ObserveTrials(fn func(Config, *Runner)) (stop func()) {
	observe = fn
	return func() { observe = nil }
}

// DropKits empties the kit free list, so the next NewRunner builds a new
// kit.
func DropKits() {
	kits.Lock()
	clear(kits.free)
	kits.free = kits.free[:0]
	kits.Unlock()
}
