package sift_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reesift/internal/apps/rover"
	"reesift/internal/chaos"
	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/internal/trace"
)

var updateRender = flag.Bool("update-render", false, "rewrite testdata/log-render.golden")

// render is the text a reader sees for one log entry: its kind and its
// detail.
func render(e sift.LogEntry) (kind, detail string) { return e.Kind.String(), e.Detail() }

// renderTrial runs one trial and returns its log and the recorder the log
// mirrored every record into from the start.
type renderTrial struct {
	name string
	run  func(t *testing.T) (log *sift.EventLog, rec *trace.Recorder)
}

// newMirror returns a recorder large enough to keep every record of one
// trial.
func newMirror() *trace.Recorder { return trace.NewRecorder(trace.Options{Buffer: 1 << 16}) }

var renderTrials = []renderTrial{
	{"split-brain one-sided (no epochs)", func(t *testing.T) (*sift.EventLog, *trace.Recorder) {
		return splitBrain(false)
	}},
	{"split-brain one-sided (epochs)", func(t *testing.T) (*sift.EventLog, *trace.Recorder) {
		return splitBrain(true)
	}},
	{"recovery node-crash/app-node+FTM", func(t *testing.T) (*sift.EventLog, *trace.Recorder) {
		envCfg := sift.DefaultEnvConfig()
		envCfg.SharedCheckpoints = true
		r := inject.NewRunner(inject.Config{
			Seed:   5,
			Model:  inject.ModelNodeCrash,
			Target: inject.TargetFTM,
			Apps:   []*sift.AppSpec{rover.Spec(1, []string{"node-a1", "node-a2"}, rover.DefaultParams())},
			Env:    &envCfg,
		})
		defer r.Kernel().Shutdown()
		rec := newMirror()
		r.Env().Log.Sink = rec
		handles := r.Deploy()
		r.Kernel().Run(r.RunConfig().Timeout)
		r.Finish(handles)
		if r.Result().Injected == 0 {
			t.Fatal("the node crash never fired")
		}
		return r.Env().Log, rec
	}},
	{"chaos 10 min SIGINT/exec-armor", func(t *testing.T) (*sift.EventLog, *trace.Recorder) {
		return chaosTrial(t, 4, inject.ModelSIGINT, inject.TargetExecArmor)
	}},
	{"chaos 10 min SIGSTOP/app", func(t *testing.T) (*sift.EventLog, *trace.Recorder) {
		return chaosTrial(t, 4, inject.ModelSIGSTOP, inject.TargetApp)
	}},
}

// splitBrain partitions the Heartbeat ARMOR's node from the rest of the
// cluster for 15 s (it can still send), with or without incarnation
// epochs, and returns the log of the first three minutes.
func splitBrain(epochs bool) (*sift.EventLog, *trace.Recorder) {
	k := sim.NewKernel(sim.DefaultConfig(21))
	defer k.Shutdown()
	cfg := sift.DefaultEnvConfig()
	cfg.FTMHeartbeatPeriod = 5 * time.Second
	cfg.HeartbeatArmorPeriod = 20 * time.Second
	cfg.SharedCheckpoints = true
	cfg.DisableEpochs = !epochs
	env := sift.New(k, cfg)
	rec := newMirror()
	env.Log.Sink = rec
	env.Setup()
	node := env.Config().HeartbeatNode
	k.Schedule(30*time.Second, func() {
		k.InstallNetFault(0x5b, &sim.NetFault{Drop: 1, Match: func(src, dst sim.PID, _ interface{}) bool {
			return k.ProcNode(src).Name() != node && k.ProcNode(dst).Name() == node
		}})
		k.Schedule(15*time.Second, k.ClearNetFault)
	})
	k.Run(3 * time.Minute)
	return env.Log, rec
}

// chaosTrial runs a traced ten-minute chaos trial of the relay service
// under one fault model and returns its log and recorder.
func chaosTrial(t *testing.T, seed int64, model inject.Model, target inject.TargetKind) (*sift.EventLog, *trace.Recorder) {
	app := chaos.ServiceApp(1, "node-a1", chaos.DefaultServicePeriod)
	var env *sift.Environment
	launch := app.Launcher
	app.Launcher = func(ac *sift.AppContext) {
		env = ac.Env
		launch(ac)
	}
	res := chaos.Trial(inject.Config{
		Seed:   seed,
		Model:  model,
		Target: target,
		Apps:   []*sift.AppSpec{app},
		Trace:  &trace.Options{Buffer: 1 << 16, MetricsEvery: -1},
	}, chaos.Spec{Process: chaos.Poisson, Horizon: 10 * time.Minute, MeanBetween: 2 * time.Minute})
	if env == nil || res.Chaos == nil || res.Chaos.Arrivals == 0 {
		t.Fatal("the chaos trial never launched its service or drew no arrival")
	}
	return env.Log, env.Log.Sink
}

// logKinds holds the name of every log kind: a traced trial's sink also
// receives the ARMORs' own log records, which are not the event log's.
var logKinds = func() map[string]bool {
	names := map[string]bool{}
	for k := sift.LogKind(1); !strings.HasPrefix(k.String(), "log-kind("); k++ {
		names[k.String()] = true
	}
	return names
}()

// TestLogRenderGolden pins the rendered text of every log entry — the
// kind and detail a reader (and a trace) sees — over five trials that
// between them produce the split-brain, node-recovery, crash and chaos
// entries. The text is read from each trial's trace sink, which holds the
// beats the log does not store; every entry the log stores must match
// its record there, in order. Regenerate with
// go test ./internal/sift -run TestLogRenderGolden -update-render.
func TestLogRenderGolden(t *testing.T) {
	var b strings.Builder
	for _, tr := range renderTrials {
		log, rec := tr.run(t)
		fmt.Fprintf(&b, "== %s\n", tr.name)
		if rec.Total() > uint64(rec.Options().Buffer) {
			t.Fatalf("%s: the sink kept %d of %d records", tr.name, rec.Options().Buffer, rec.Total())
		}
		var stored []trace.Record
		beats := 0
		for _, r := range rec.Records() {
			if r.Kind != trace.KindLog || !logKinds[r.Op] {
				continue
			}
			fmt.Fprintf(&b, "%d %s %s\n", int64(r.At), r.Op, r.Detail)
			if r.Op == sift.LogChaosBeat.String() {
				beats++
			} else {
				stored = append(stored, r)
			}
		}
		if beats != log.Count(sift.LogChaosBeat) || len(stored)+beats != log.Len() {
			t.Fatalf("%s: sink received %d beats and %d other log records for %d beats of %d entries",
				tr.name, beats, len(stored), log.Count(sift.LogChaosBeat), log.Len())
		}
		i := 0
		for e := range log.Each() {
			kind, detail := render(e)
			if m := stored[i]; m.At != e.At || m.Op != kind || m.Detail != detail {
				t.Fatalf("%s: entry %d renders %v %s %q, its trace record %v %s %q",
					tr.name, i, e.At, kind, detail, m.At, m.Op, m.Detail)
			}
			i++
		}
	}
	path := filepath.Join("testdata", "log-render.golden")
	if *updateRender {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("log rendering differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("log rendering differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
