package chaos

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/stats"
	"reesift/internal/trace"
)

// beat is one beat as its trace record shows it.
type beat struct {
	at  time.Duration
	app sift.AppID
}

// beatRecord returns the beats a trial's trace sink received, in order.
func beatRecord(t *testing.T, rec *trace.Recorder) []beat {
	t.Helper()
	if rec.Total() > uint64(rec.Options().Buffer) {
		t.Fatalf("the sink kept %d of %d records", rec.Options().Buffer, rec.Total())
	}
	var beats []beat
	for _, r := range rec.Records() {
		if r.Kind != trace.KindLog || r.Op != BeatKind.String() {
			continue
		}
		app, _, ok := strings.Cut(strings.TrimPrefix(r.Detail, "app="), " ")
		id, err := strconv.ParseUint(app, 10, 64)
		if !ok || err != nil {
			t.Fatalf("beat record %q names no application", r.Detail)
		}
		beats = append(beats, beat{r.At, sift.AppID(id)})
	}
	return beats
}

// scanStats is the availability measurement as a scan over a stored beat
// record, each gap judged against spec.ServicePeriod: the oracle the
// trial's beat fold must match. arrivals and events are the trial's own.
func scanStats(beats []beat, cfg inject.Config, spec Spec, arrivals int, events []inject.ArrivalEvent) inject.ChaosStats {
	spec = spec.withDefaults()
	st := inject.ChaosStats{Horizon: spec.Horizon, Arrivals: arrivals, Events: events}
	period, grace := spec.ServicePeriod, spec.DownGrace
	var first, prev, downtime time.Duration
	var down []time.Duration
	n := 0
	for _, b := range beats {
		if len(cfg.Apps) == 0 || b.app != cfg.Apps[0].ID {
			continue
		}
		if n == 0 {
			first = b.at
		} else if excess := b.at - prev - period; excess > grace {
			down = append(down, excess)
			downtime += excess
		}
		prev = b.at
		n++
	}
	if n == 0 {
		whole := spec.Horizon - cfg.SubmitAt
		st.Downs, st.Down, st.Downtime = 1, []time.Duration{whole}, whole
		st.MTTRp50, st.MTTRp95, st.MTTRMax = whole, whole, whole
		st.Unrecoverable, st.TimeToUnrecoverable = true, cfg.SubmitAt
		return st
	}
	if tail := spec.Horizon - prev - period; tail > grace {
		down = append(down, tail)
		downtime += tail
		if tail >= spec.UnrecoverableAfter {
			st.Unrecoverable, st.TimeToUnrecoverable = true, prev+period
		}
	}
	st.Down, st.Downs, st.Downtime = down, len(down), downtime
	if window := spec.Horizon - first; window > 0 {
		st.Availability = 1 - float64(downtime)/float64(window)
	}
	if len(down) > 0 {
		var s stats.Sample
		for _, d := range down {
			s.AddDuration(d)
		}
		st.MTTRp50, st.MTTRp95, st.MTTRMax = secs(s.Percentile(50)), secs(s.Percentile(95)), secs(s.Max())
	}
	return st
}

// observe wraps the launchers of cfg's applications so that the first
// launch sets *env to the trial's environment.
func observe(cfg *inject.Config, env **sift.Environment) {
	apps := make([]*sift.AppSpec, len(cfg.Apps))
	for i, app := range cfg.Apps {
		wrapped := *app
		launch := app.Launcher
		wrapped.Launcher = func(ac *sift.AppContext) {
			*env = ac.Env
			launch(ac)
		}
		apps[i] = &wrapped
	}
	cfg.Apps = apps
}

// tracedTrial runs a chaos trial with a trace sink that keeps every
// record, and returns its result and the sink.
func tracedTrial(t *testing.T, cfg inject.Config, spec Spec) (inject.Result, *trace.Recorder) {
	t.Helper()
	var env *sift.Environment
	observe(&cfg, &env)
	cfg.Trace = &trace.Options{Buffer: 1 << 17, MetricsEvery: -1}
	res := Trial(cfg, spec)
	if env == nil {
		t.Fatal("the trial launched no application")
	}
	return res, env.Log.Sink
}

// TestFoldMatchesScan checks the beat fold against a scan of the beat
// record, field by field, on a Poisson trial, a rolling outage, a trial
// whose observed application never beats and one whose service stops
// beating for good.
func TestFoldMatchesScan(t *testing.T) {
	poisson, poissonSpec := trialConfig(1)
	poissonSpec.MeanBetween = 5 * time.Minute

	rolling, rollingSpec := trialConfig(5)
	env := sift.DefaultEnvConfig()
	env.SharedCheckpoints = true
	rolling.Env = &env
	rollingSpec.Process, rollingSpec.MeanBetween = RollingOutage, 20*time.Minute

	silent, silentSpec := trialConfig(3)
	mute := ServiceApp(1, "n1", DefaultServicePeriod)
	mute.Launcher = func(ac *sift.AppContext) {
		for {
			ac.Proc.Sleep(time.Hour)
		}
	}
	silent.Apps = []*sift.AppSpec{mute, ServiceApp(2, "n2", DefaultServicePeriod)}
	silent.SubmitAt = 7 * time.Second

	// A service that stops beating for good after an hour: the trial ends
	// in an unrecoverable tail.
	quitting, quittingSpec := trialConfig(6)
	quits := ServiceApp(1, "node-a1", DefaultServicePeriod)
	left := int(time.Hour / DefaultServicePeriod)
	quits.Launcher = func(ac *sift.AppContext) {
		ac.PICreate(quits.PIPeriod)
		for i := uint64(1); left > 0; i++ {
			left--
			ac.Proc.Sleep(DefaultServicePeriod)
			ac.Progress(i)
			ac.Env.Log.Beat(ac.Proc.Now(), quits.ID, i, DefaultServicePeriod)
		}
		for {
			ac.Proc.Sleep(time.Hour)
		}
	}
	quitting.Apps = []*sift.AppSpec{quits}

	for _, c := range []struct {
		name string
		cfg  inject.Config
		spec Spec
	}{
		{"poisson", poisson, poissonSpec},
		{"rolling-outage", rolling, rollingSpec},
		{"never-beats", silent, silentSpec},
		{"unrecoverable-tail", quitting, quittingSpec},
	} {
		res, rec := tracedTrial(t, c.cfg, c.spec)
		beats := beatRecord(t, rec)
		if len(beats) == 0 {
			t.Fatalf("%s: the sink received no beat", c.name)
		}
		want := scanStats(beats, c.cfg, c.spec, res.Chaos.Arrivals, res.Chaos.Events)
		if !reflect.DeepEqual(*res.Chaos, want) {
			t.Errorf("%s: the fold measures\n%+v\nthe scan of %d beats\n%+v", c.name, *res.Chaos, len(beats), want)
		}
		t.Logf("%s: %d beats, %d downs, availability %.4f, unrecoverable %v",
			c.name, len(beats), want.Downs, want.Availability, want.Unrecoverable)
	}
}

// TestTracedTrialDigest pins the trace stream of a traced ten-minute chaos
// trial: how the log stores beats does not change what it mirrors.
func TestTracedTrialDigest(t *testing.T) {
	const (
		digest  = "fnv1a:fd84b938db070c36"
		records = 3424
	)
	cfg, spec := trialConfig(4)
	cfg.Trace = &trace.Options{}
	spec.Horizon = 10 * time.Minute
	res := Trial(cfg, spec)
	if res.TraceDigest != digest || res.TraceRecords != records {
		t.Fatalf("trace digest %s over %d records, want %s over %d", res.TraceDigest, res.TraceRecords, digest, records)
	}
}

// TestGapsUseTheBeatingServicesPeriod runs a 10 s relay service under a
// spec whose ServicePeriod is left at its 5 s default: every gap is judged
// against the 10 s the service beats at, so the trial measures what the
// same trial of a 5 s service measures.
func TestGapsUseTheBeatingServicesPeriod(t *testing.T) {
	spec := Spec{Process: Poisson, Horizon: 2 * time.Hour, MeanBetween: 20 * time.Minute}
	measure := func(period time.Duration) *inject.ChaosStats {
		cfg, _ := trialConfig(7)
		cfg.Apps = []*sift.AppSpec{ServiceApp(1, "node-b1", period)}
		return Trial(cfg, spec).Chaos
	}
	slow, fast := measure(10*time.Second), measure(DefaultServicePeriod)
	if slow.Downs != fast.Downs || slow.Availability != fast.Availability {
		t.Fatalf("a 10 s service measures %d downs, availability %v; a 5 s one %d downs, availability %v",
			slow.Downs, slow.Availability, fast.Downs, fast.Availability)
	}
	if slow.Availability != 1 {
		t.Fatalf("availability %v with %d downs, want 1", slow.Availability, slow.Downs)
	}
}

// TestLogStoresNoBeats runs a seven-day trial: the log stores every entry
// but its beats, which it only counts.
func TestLogStoresNoBeats(t *testing.T) {
	if testing.Short() {
		t.Skip("seven simulated days")
	}
	cfg, spec := trialConfig(2)
	spec.Horizon, spec.MeanBetween = 7*24*time.Hour, time.Hour
	var env *sift.Environment
	observe(&cfg, &env)
	if res := Trial(cfg, spec); res.Chaos.Unrecoverable {
		t.Fatal("the trial ended unrecoverable")
	}
	log := env.Log
	stored, others := 0, 0
	for range log.Each() {
		stored++
	}
	for k := sift.LogKind(1); !strings.HasPrefix(k.String(), "log-kind("); k++ {
		if k != BeatKind {
			others += log.Count(k)
		}
	}
	beats := log.Count(BeatKind)
	if stored != others || stored+beats != log.Len() {
		t.Fatalf("the log stores %d entries for %d non-beat entries (%d recorded, %d beats)", stored, others, log.Len(), beats)
	}
	if min := int(spec.Horizon/DefaultServicePeriod) * 9 / 10; beats < min {
		t.Fatalf("%d beats over seven days, want at least %d", beats, min)
	}
	t.Logf("%d entries stored, %d beats counted", stored, beats)
}
