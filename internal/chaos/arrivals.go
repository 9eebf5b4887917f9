package chaos

import (
	"time"

	"reesift/internal/inject"
	"reesift/internal/sift"
	"reesift/internal/trace"
)

// arm has the trial's log fold the observed application's beats and
// schedules the arrival process on the trial's kernel. It runs before the
// kernel starts; the process itself begins at the application's submit
// time, mirroring the one-shot models' injection window.
func (d *driver) arm() {
	if apps := d.r.RunConfig().Apps; len(apps) > 0 {
		d.fold = sift.BeatFold{App: apps[0].ID, Grace: d.spec.DownGrace}
		d.r.Env().Log.FoldBeats(&d.fold)
	}
	start := d.r.RunConfig().SubmitAt
	k := d.r.Kernel()
	switch d.spec.Process {
	case Poisson:
		k.Schedule(start, d.nextPoisson)
	case Bursts:
		k.Schedule(start, d.nextBurst)
	case RollingOutage:
		offset := 0
		k.Schedule(start, func() { d.nextWave(offset) })
	case DoubleFault:
		k.Schedule(start, d.nextDouble)
	}
}

// gap draws one exponential inter-arrival time (mean MeanBetween),
// floored at a millisecond so pathological draws cannot wedge the event
// loop at a single instant.
func (d *driver) gap() time.Duration {
	g := time.Duration(d.rng.ExpFloat64() * float64(d.spec.MeanBetween))
	if g < time.Millisecond {
		g = time.Millisecond
	}
	return g
}

// until schedules fn at the next drawn arrival, unless that would land
// past the horizon (the process then simply ends).
func (d *driver) until(fn func()) {
	k := d.r.Kernel()
	g := d.gap()
	if k.Now()+g >= d.spec.Horizon {
		return
	}
	k.Schedule(g, fn)
}

// note records one arrival event.
func (d *driver) note(ev inject.ArrivalEvent) {
	d.arrivals++
	if d.spec.MaxEvents > 0 && len(d.events) < d.spec.MaxEvents {
		d.events = append(d.events, ev)
	}
	k := d.r.Kernel()
	if k.TraceOn() {
		k.Emit(trace.Record{At: ev.At, Kind: trace.KindArrival,
			Op: ev.Model.String(), Node: ev.Node, A: int64(d.arrivals)})
	}
}

// firePrimary fires the configured primary stage now.
func (d *driver) firePrimary() {
	at := d.r.Kernel().Now()
	d.r.FireStage(d.primary, at)
	d.note(inject.ArrivalEvent{At: at, Model: d.primary.Model, Target: d.primary.Target})
}

// nextPoisson is the memoryless arrival loop: fire, draw, reschedule.
func (d *driver) nextPoisson() {
	d.until(func() {
		d.firePrimary()
		d.nextPoisson()
	})
}

// nextBurst schedules Poisson-spaced trains of BurstSize closely spaced
// primary insertions.
func (d *driver) nextBurst() {
	d.until(func() {
		k := d.r.Kernel()
		for i := 0; i < d.spec.BurstSize; i++ {
			shot := time.Duration(i) * d.spec.BurstSpacing
			if k.Now()+shot >= d.spec.Horizon {
				break
			}
			if shot == 0 {
				d.firePrimary()
			} else {
				k.Schedule(shot, d.firePrimary)
			}
		}
		d.nextBurst()
	})
}

// nextWave schedules Poisson-spaced outage waves rolling around the
// cluster node ring from offset, crashing WaveNodes nodes WaveSpacing
// apart — deliberately faster than the restart window, so outages
// overlap and recovery has to migrate.
func (d *driver) nextWave(offset int) {
	d.until(func() {
		k := d.r.Kernel()
		nodes := d.r.Env().Config().Nodes
		if len(nodes) == 0 {
			return
		}
		count := d.spec.WaveNodes
		if count <= 0 || count > len(nodes) {
			count = len(nodes)
		}
		for i := 0; i < count; i++ {
			name := nodes[(offset+i)%len(nodes)]
			delay := time.Duration(i) * d.spec.WaveSpacing
			if k.Now()+delay >= d.spec.Horizon {
				break
			}
			if delay == 0 {
				d.crashNode(name)
			} else {
				k.Schedule(delay, func() { d.crashNode(name) })
			}
		}
		d.nextWave(offset + count)
	})
}

// crashNode fails one node (with its delayed restart) directly — outage
// waves target nodes, not processes, so they bypass the injector
// registry and tally through NoteInjections.
func (d *driver) crashNode(name string) {
	k := d.r.Kernel()
	n := k.Node(name)
	if n == nil || !n.Up() {
		return // already down: the wave outran the restart window
	}
	at := k.Now()
	k.CrashNode(name)
	k.Schedule(d.r.RunConfig().NodeRestartAfter, func() { k.RestartNode(name) })
	d.r.NoteInjections(at, 1)
	d.note(inject.ArrivalEvent{At: at, Model: inject.ModelNodeCrash, Target: inject.TargetNone, Node: name})
}

// nextDouble fires Poisson primaries and arms the second stage SecondLag
// later, conditioned on a recovery actually being in flight — the
// crash-during-recovery correlated fault.
func (d *driver) nextDouble() {
	d.until(func() {
		k := d.r.Kernel()
		d.firePrimary()
		k.Schedule(d.spec.SecondLag, func() {
			if k.Now() >= d.spec.Horizon {
				return
			}
			if !d.r.Env().Log.RecoveryInFlight() {
				return // primary did not open a recovery window; no double
			}
			at := k.Now()
			d.r.FireStage(*d.spec.Second, at)
			d.note(inject.ArrivalEvent{At: at, Model: d.spec.Second.Model, Target: d.spec.Second.Target})
		})
		d.nextDouble()
	})
}
