package chaos

import (
	"time"

	"reesift/internal/sift"
)

// BeatKind is the event-log kind of one acknowledged service beat. The
// availability measurement is a gap analysis over these beats, folded as
// they arrive (sift.BeatFold); an application other than the built-in
// relay service can opt into measurement by logging them with the same
// convention (one EventLog.Beat per period, under its own AppID and with
// that period).
const BeatKind = sift.LogChaosBeat

// ServiceApp builds the chaos relay service: a single-rank application
// that never completes, sending one progress-indicator update per period
// and logging a beat after each acknowledged update. Because Progress
// blocks until the Execution ARMOR acknowledges (retransmitting into the
// void while SIFT is down — the SAN model's app_block state), the beat
// gaps observe exactly the two unavailability components the paper's
// availability model predicts: blocked time and failure/repair cycles.
//
// The progress-indicator period is set to four beat periods so a single
// retransmission round (~2 s) cannot alias into a spurious hang
// detection; only a genuinely wedged service trips the watchdog.
func ServiceApp(id sift.AppID, node string, period time.Duration) *sift.AppSpec {
	if period <= 0 {
		period = DefaultServicePeriod
	}
	spec := &sift.AppSpec{
		ID:       id,
		Name:     "chaos-relay",
		Ranks:    1,
		Nodes:    []string{node},
		PIPeriod: 4 * period,
	}
	spec.Launcher = func(ac *sift.AppContext) { runService(ac, spec, period) }
	return spec
}

// runService is the relay loop. A restarted incarnation simply resumes
// beating; the restart gap shows up in the beat record as one down
// interval.
func runService(ac *sift.AppContext, spec *sift.AppSpec, period time.Duration) {
	ac.PICreate(spec.PIPeriod)
	for i := uint64(1); ; i++ {
		ac.Proc.Sleep(period)
		ac.Progress(i)
		ac.Env.Log.Beat(ac.Proc.Now(), spec.ID, i, period)
	}
}
