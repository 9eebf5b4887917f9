package chaos

import (
	"time"

	"reesift/internal/inject"
	"reesift/internal/stats"
)

// measure folds the trial's beat record into the chaos statistics. It
// runs after the kernel has stopped, on the host side.
//
// The service is up while beats arrive on schedule; any inter-beat gap
// in excess of the beat period (plus DownGrace slack) is one down
// interval — whether the excess was blocked time (the SIFT interface
// retransmitting into a dead Execution ARMOR) or a failure/repair cycle
// (service dead until the environment restarted it). The measurement
// window runs from the first beat (steady state reached) to the
// horizon, so cluster and application startup are excluded.
func (d *driver) measure() inject.ChaosStats {
	st := inject.ChaosStats{
		Horizon:  d.spec.Horizon,
		Arrivals: d.arrivals,
		Events:   d.events,
	}
	period := d.spec.ServicePeriod
	grace := d.spec.DownGrace
	cfg := d.r.RunConfig()
	// One pass over the observed application's beats: the first opens
	// the window, and each later one closes the gap since the one before.
	var first, prev time.Duration
	var down []time.Duration
	var downtime time.Duration
	beats := 0
	for _, e := range d.r.Env().Log.Entries {
		if e.Kind != BeatKind || len(cfg.Apps) == 0 || e.App() != cfg.Apps[0].ID {
			continue
		}
		if beats == 0 {
			first = e.At
		} else if excess := e.At - prev - period; excess > grace {
			down = append(down, excess)
			downtime += excess
		}
		prev = e.At
		beats++
	}
	if beats == 0 {
		// The service never produced a single beat: down for the whole
		// trial, unrecoverable from the submit time.
		start := cfg.SubmitAt
		whole := d.spec.Horizon - start
		st.Downs = 1
		st.Down = []time.Duration{whole}
		st.Downtime = whole
		st.Availability = 0
		st.MTTRp50, st.MTTRp95, st.MTTRMax = whole, whole, whole
		st.Unrecoverable = true
		st.TimeToUnrecoverable = start
		return st
	}
	// The tail: silence from the last beat to the horizon. Long enough,
	// and the trial ends in an unrecoverable state.
	if tail := d.spec.Horizon - prev - period; tail > grace {
		down = append(down, tail)
		downtime += tail
		if tail >= d.spec.UnrecoverableAfter {
			st.Unrecoverable = true
			st.TimeToUnrecoverable = prev + period
		}
	}
	st.Down = down
	st.Downs = len(down)
	st.Downtime = downtime
	if window := d.spec.Horizon - first; window > 0 {
		st.Availability = 1 - float64(downtime)/float64(window)
	}
	if len(down) > 0 {
		var s stats.Sample
		for _, dd := range down {
			s.AddDuration(dd)
		}
		st.MTTRp50 = secs(s.Percentile(50))
		st.MTTRp95 = secs(s.Percentile(95))
		st.MTTRMax = secs(s.Max())
	}
	return st
}

// secs converts a stats sample value (seconds) back to a duration.
func secs(v float64) time.Duration {
	return time.Duration(v * float64(time.Second))
}
