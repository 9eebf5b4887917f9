package chaos

import (
	"time"

	"reesift/internal/inject"
	"reesift/internal/stats"
)

// measure turns the trial's beat fold into the chaos statistics. It runs
// after the kernel has stopped, on the host side.
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
	f := &d.fold
	if f.Beats == 0 {
		// The service never produced a single beat: down for the whole
		// trial, unrecoverable from the submit time.
		start := d.r.RunConfig().SubmitAt
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
	down, downtime := f.Down, f.Downtime
	// The tail: silence from the last beat to the horizon. Long enough,
	// and the trial ends in an unrecoverable state.
	if tail := d.spec.Horizon - f.Last - f.Period; tail > f.Grace {
		down = append(down, tail)
		downtime += tail
		if tail >= d.spec.UnrecoverableAfter {
			st.Unrecoverable = true
			st.TimeToUnrecoverable = f.Last + f.Period
		}
	}
	st.Down = down
	st.Downs = len(down)
	st.Downtime = downtime
	if window := d.spec.Horizon - f.First; window > 0 {
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
