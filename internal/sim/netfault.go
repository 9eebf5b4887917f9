package sim

import (
	"math/rand"
	"time"
)

// NetFault is a deterministic message-level fault model applied at the
// kernel's send/latency boundary — the simulation analogue of a flaky
// network segment on the testbed's 100 Mbps Ethernet. While installed,
// every Proc.Send consults it: the message may be dropped (omission),
// handed to Mutate (value corruption), or delayed beyond the nominal
// link latency. Kernel-internal wake sources — child-exit notifications
// and timers — are not network traffic and are never subject to it.
//
// All draws come from a dedicated RNG seeded at install time, so
// installing (or clearing) a fault model never perturbs the kernel's
// main random stream: a run with no NetFault is bit-identical to a run
// on a kernel that never had the feature.
type NetFault struct {
	// Drop is the probability a matched message vanishes in flight.
	Drop float64
	// Corrupt is the probability a matched message is handed to Mutate.
	Corrupt float64
	// Delay is the probability a matched message is delayed by an extra
	// uniform draw from [0, MaxExtraDelay).
	Delay float64
	// MaxExtraDelay bounds the extra delivery delay; Delay is ignored
	// when it is not positive.
	MaxExtraDelay time.Duration
	// Match selects the messages subject to the fault model (nil = all
	// network messages).
	Match func(src, dst PID, payload interface{}) bool
	// Mutate transforms the payload of a corrupted message. It reports
	// whether it actually corrupted the payload; payload kinds it does
	// not understand pass through unchanged and are not counted.
	Mutate func(payload interface{}) (interface{}, bool)
}

// NetFaultStats counts the fault model's effects so far. Counters are
// cumulative across installs within one kernel lifetime.
type NetFaultStats struct {
	Dropped   int
	Corrupted int
	Delayed   int
}

// InstallNetFault arms a message fault model with its own RNG seeded by
// seed. Installing over an active model replaces it (and reseeds).
// A nil fault clears the model.
func (k *Kernel) InstallNetFault(seed int64, f *NetFault) {
	k.netFault = f
	switch {
	case f == nil:
	case k.netRNG == nil:
		k.netRNG = rand.New(rand.NewSource(seed))
	default:
		k.netRNG.Seed(seed) // the same stream as a new source
	}
}

// ClearNetFault disarms the message fault model. Accumulated stats are
// preserved.
func (k *Kernel) ClearNetFault() { k.netFault = nil }

// NetFaultStats reports the cumulative effects of installed fault
// models.
func (k *Kernel) NetFaultStats() NetFaultStats { return k.netStats }

// applyNetFault runs one message through the active fault model,
// possibly mutating the message or inflating the latency. It reports
// whether the message should be dropped. Draw order (drop, corrupt,
// delay) is fixed so a campaign's outcome is a pure function of the
// install seed.
func (k *Kernel) applyNetFault(src, dst PID, m *Msg, lat *time.Duration) bool {
	f := k.netFault
	if f == nil {
		return false
	}
	if f.Match != nil && !f.Match(src, dst, m.Payload) {
		return false
	}
	if f.Drop > 0 && k.netRNG.Float64() < f.Drop {
		k.netStats.Dropped++
		return true
	}
	if f.Corrupt > 0 && f.Mutate != nil && k.netRNG.Float64() < f.Corrupt {
		if mutated, ok := f.Mutate(m.Payload); ok {
			m.Payload = mutated
			k.netStats.Corrupted++
		}
	}
	if f.Delay > 0 && f.MaxExtraDelay > 0 && k.netRNG.Float64() < f.Delay {
		*lat += time.Duration(k.netRNG.Int63n(int64(f.MaxExtraDelay)))
		k.netStats.Delayed++
	}
	return false
}
