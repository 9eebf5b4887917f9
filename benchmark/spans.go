package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"reesift/internal/campaign"
	"reesift/internal/chaos"
	"reesift/internal/core"
	"reesift/internal/inject"
	"reesift/internal/sift"
)

// span is one timed call into a layer. Spans of one trial share its trial
// index; Parent is the span that made the call (-1 for a trial's root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing and reads no clock, which is the "same round without spans"
// that bench.span_overhead is measured against. The phased trials run one
// at a time, so the log needs no lock.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent, trial int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Name: name, Parent: parent, Trial: trial,
		Start: time.Since(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].End = time.Since(l.t0).Nanoseconds()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range l.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths only; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// Span names. A phased one-shot trial is
//
//	trial ⊃ inject.new_runner, inject.deploy,
//	        inject.run ⊃ sift.install, inject.finish, inject.shutdown
//
// and a chaos trial, whose driver owns its Runner, is trial ⊃ chaos.trial.
const (
	spanTrial     = "trial"
	spanNewRunner = "inject.new_runner"
	spanDeploy    = "inject.deploy"
	spanRun       = "inject.run"
	spanInstall   = "sift.install"
	spanFinish    = "inject.finish"
	spanShutdown  = "inject.shutdown"
	spanChaos     = "chaos.trial"
)

// layerCounts are the counts read through public accessors while a phased
// trial's environment is still standing.
type layerCounts struct {
	messages    uint64
	ckptCommits int
}

// phasedTrial runs one trial through the exported runner lifecycle with a
// span around each call. With a nil log it is the same calls untimed.
func phasedTrial(l *spanLog, trial int, c cell, seed int64) (inject.Result, layerCounts) {
	cfg := c.config(seed)
	root := l.begin(spanTrial, -1, trial)
	defer l.end(root)

	if c.inj.Arrival != nil {
		// chaos.Trial arms its arrival process on a Runner it builds
		// itself, so the lifecycle cannot be split from outside. The
		// environment is still reachable for the counts: every rank body
		// is handed it, and the relay's launcher is ours to wrap.
		var env *sift.Environment
		for _, app := range cfg.Apps {
			launch := app.Launcher
			app.Launcher = func(ac *sift.AppContext) {
				env = ac.Env
				launch(ac)
			}
		}
		s := l.begin(spanChaos, root, trial)
		res := chaos.Trial(cfg, *c.inj.Arrival)
		l.end(s)
		return res, countLayers(env, cfg.Apps)
	}

	s := l.begin(spanNewRunner, root, trial)
	r := inject.NewRunner(cfg)
	l.end(s)

	s = l.begin(spanDeploy, root, trial)
	handles := r.Deploy()
	l.end(s)

	run := l.begin(spanRun, root, trial)
	s = l.begin(spanInstall, run, trial)
	r.Kernel().Run(r.RunConfig().SubmitAt)
	l.end(s)
	r.Kernel().Run(r.RunConfig().Timeout)
	l.end(run)
	counts := countLayers(r.Env(), cfg.Apps)

	s = l.begin(spanFinish, root, trial)
	r.Finish(handles)
	r.Record()
	l.end(s)

	s = l.begin(spanShutdown, root, trial)
	r.Kernel().Shutdown()
	l.end(s)
	return *r.Result(), counts
}

// countLayers reads the kernel's message count and the microcheckpoint
// commits of the FTM, the Heartbeat ARMOR and every Execution ARMOR. A
// reinstalled ARMOR counts from its reinstall, so the sum is a floor.
func countLayers(env *sift.Environment, apps []*sift.AppSpec) layerCounts {
	if env == nil {
		return layerCounts{}
	}
	c := layerCounts{messages: env.K.MessagesSent()}
	aids := []core.AID{sift.AIDFTM, sift.AIDHeartbeat}
	for _, app := range apps {
		for rank := 0; rank < app.Ranks; rank++ {
			aids = append(aids, sift.AIDExec(app.ID, rank))
		}
	}
	for _, aid := range aids {
		if a := env.ArmorOf(aid); a != nil && a.Checkpoint() != nil {
			c.ckptCommits += a.Checkpoint().Commits()
		}
	}
	return c
}

// phasedRound runs every trial of a round, one at a time, through
// phasedTrial. Fan-out workloads dispatch through campaign.Map, as their
// timed rounds do through reesift.Campaign.
func phasedRound(l *spanLog, w workload, cells []cell, seed int64) ([]trialOut, layerCounts, error) {
	var out []trialOut
	var total layerCounts
	for _, c := range cells {
		base := len(out)
		one := func(run int) trialOut {
			res, counts := phasedTrial(l, base+run, c, campaign.DeriveSeed(seed, w.identity(c), run))
			total.messages += counts.messages
			total.ckptCommits += counts.ckptCommits
			return outcome(&res)
		}
		if w.fanOut {
			out = append(out, campaign.Map(1, c.runs, one)...)
			continue
		}
		for run := 0; run < c.runs; run++ {
			out = append(out, one(run))
		}
	}
	return out, total, firstError(out)
}
