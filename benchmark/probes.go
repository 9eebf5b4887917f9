package main

import (
	"fmt"
	"runtime"
	"time"

	"reesift/internal/apps/otis"
	"reesift/internal/apps/rover"
	"reesift/internal/campaign"
	"reesift/internal/core"
	"reesift/internal/fft"
	"reesift/internal/sift"
	"reesift/internal/sim"
	"reesift/internal/trace"
	"reesift/pkg/reesift"
)

// Layer probes: small drivers that time only calls into one layer's
// public functions. They are the same on every workload; a probe's figure
// times a count from the phased trials estimates what that layer costs a
// workload where the spans cannot see inside Kernel.Run.

// perOp calls batch until budget has passed and returns host nanoseconds
// and mallocs per operation; batch returns how many operations it did.
func perOp(budget time.Duration, batch func() int) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	start := time.Now()
	for ops == 0 || time.Since(start) < budget {
		ops += batch()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// perCall is perOp for probes whose operation is one call of fn.
func perCall(budget time.Duration, fn func()) (ns, allocs float64) {
	return perOp(budget, func() int { fn(); return 1 })
}

// firedBy advances k by window and returns the events that fired.
func firedBy(k *sim.Kernel, limit *time.Duration, window time.Duration) int {
	before := k.EventsFired()
	*limit += window
	k.Run(*limit)
	return int(k.EventsFired() - before)
}

// probeEventLoop times the bare Schedule/fire/Reschedule cycle — a
// millisecond ticker that re-arms itself and pushes a watchdog out — with
// `pending` idle timers sitting in the heap underneath it.
func probeEventLoop(budget time.Duration, pending int) float64 {
	k := sim.NewKernel(sim.Config{Seed: 1})
	idle := func() {}
	for i := 0; i < pending; i++ {
		k.Schedule(1000*time.Hour+time.Duration(i), idle)
	}
	wd := k.Schedule(time.Minute, idle)
	var tick func()
	tick = func() {
		wd.Reschedule(time.Minute)
		k.Schedule(time.Millisecond, tick)
	}
	k.Schedule(time.Millisecond, tick)
	var limit time.Duration
	firedBy(k, &limit, time.Second) // warm the event pool
	ns, _ := perOp(budget, func() int { return firedBy(k, &limit, time.Second) })
	return ns
}

// probeHandoff times the goroutine token handoff: two processes on one
// node ping-ponging a pre-boxed payload through Send/Recv.
func probeHandoff(budget time.Duration) (ns, allocs float64) {
	k := sim.NewKernel(sim.Config{Seed: 1})
	defer k.Shutdown()
	n := k.AddNode("probe")
	payload := interface{}(struct{ beat int }{1})
	echo := k.Spawn(n, "echo", sim.NoPID, func(p *sim.Proc) {
		for {
			m := p.Recv()
			p.Send(m.From, m.Payload)
		}
	})
	k.Spawn(n, "driver", sim.NoPID, func(p *sim.Proc) {
		for {
			p.Send(echo, payload)
			p.Recv()
		}
	})
	var limit time.Duration
	firedBy(k, &limit, 100*time.Millisecond) // warm the inbox rings
	return perOp(budget, func() int { return firedBy(k, &limit, 100*time.Millisecond) })
}

// probeSpawnReap times process creation and teardown: 1,000 processes
// spawned, run until parked, then reaped by Shutdown.
func probeSpawnReap(budget time.Duration) float64 {
	const procs = 1000
	ns, _ := perOp(budget, func() int {
		k := sim.NewKernel(sim.Config{Seed: 1})
		n := k.AddNode("probe")
		for i := 0; i < procs; i++ {
			k.Spawn(n, "parked", sim.NoPID, func(p *sim.Proc) { p.Recv() })
		}
		k.Run(time.Millisecond)
		k.Shutdown()
		return procs
	})
	return ns / 1e3
}

// codecFields is the probe record's field count.
const codecFields = 32

// encodeRecord writes the probe record: 6×{u64,i64,f64,bool} plus four
// strings and four byte slices. It starts from a zero Encoder, as element
// Snapshot methods do.
func encodeRecord(blob []byte) []byte {
	var e core.Encoder
	for i := 0; i < 6; i++ {
		e.PutU64(uint64(i) << 20)
		e.PutI64(int64(-i))
		e.PutF64(float64(i) / 3)
		e.PutBool(i%2 == 0)
	}
	for i := 0; i < 4; i++ {
		e.PutString("node-a1")
		e.PutBytes(blob)
	}
	return e.Bytes()
}

func decodeRecord(buf []byte) error {
	d := core.NewDecoder(buf)
	for i := 0; i < 6; i++ {
		d.U64()
		d.I64()
		d.F64()
		d.Bool()
	}
	for i := 0; i < 4; i++ {
		_ = d.String()
		d.Bytes()
	}
	return d.Done()
}

// probeCodec returns ns per field for Encoder.Put* and Decoder reads.
func probeCodec(budget time.Duration) (encodeNS, decodeNS float64, err error) {
	blob := make([]byte, 24)
	buf := encodeRecord(blob)
	if err := decodeRecord(buf); err != nil {
		return 0, 0, fmt.Errorf("codec probe: %w", err)
	}
	enc, _ := perCall(budget, func() { encodeRecord(blob) })
	dec, _ := perCall(budget, func() { _ = decodeRecord(buf) })
	return enc / codecFields, dec / codecFields, nil
}

// probeCheckpoint times one microcheckpoint (Update of one region plus
// Commit of the buffer) and one Load, on an image of eight 128-byte
// regions.
func probeCheckpoint(budget time.Duration) (commitUS, loadUS float64, err error) {
	ck := core.NewCheckpoint(sim.NewFS(), "ckpt/probe")
	names := make([]string, 8)
	state := make([]byte, 128)
	for i := range names {
		names[i] = fmt.Sprintf("element-%d", i)
		ck.Update(names[i], state)
	}
	ck.Commit()
	i := 0
	commit, _ := perCall(budget, func() {
		ck.Update(names[i%len(names)], state)
		ck.Commit()
		i++
	})
	if found, err := ck.Load(); !found || err != nil {
		return 0, 0, fmt.Errorf("checkpoint probe: load found=%v: %v", found, err)
	}
	load, _ := perCall(budget, func() { _, _ = ck.Load() })
	return commit / 1e3, load / 1e3, nil
}

// pingElem is the probe ARMOR's only element: on every timer tick it
// sends one reliable message to its peer; on receipt it counts.
type pingElem struct {
	peer  core.AID
	count uint64
}

const evPing core.EventKind = "bench.ping"

func (e *pingElem) Name() string                    { return "ping" }
func (e *pingElem) Subscriptions() []core.EventKind { return []core.EventKind{evPing} }
func (e *pingElem) Check() error                    { return nil }
func (e *pingElem) Start(ctx *core.Ctx)             { e.arm(ctx) }

func (e *pingElem) arm(ctx *core.Ctx) {
	if e.peer.Valid() {
		ctx.After(e.Name(), time.Millisecond, nil)
	}
}

func (e *pingElem) Handle(ctx *core.Ctx, ev core.Event) {
	switch ev.Kind {
	case evPing:
		e.count++
	case core.EventTimer:
		ctx.Send(e.peer, evPing, nil)
		e.arm(ctx)
	}
}

func (e *pingElem) Snapshot() []byte {
	var enc core.Encoder
	enc.PutU64(e.count)
	return enc.Bytes()
}

func (e *pingElem) Restore(data []byte) error {
	d := core.NewDecoder(data)
	e.count = d.U64()
	return d.Done()
}

// probeArmorMsg times one reliable ARMOR-to-ARMOR message with no daemon
// in between: timer, envelope, delivery, element handling, microcheckpoint
// and acknowledgement.
func probeArmorMsg(budget time.Duration) (us, allocs float64) {
	k := sim.NewKernel(sim.DefaultConfig(1))
	defer k.Shutdown()
	n := k.AddNode("probe")
	pids := make(map[core.AID]sim.PID)
	lower := func(p *sim.Proc, env core.Envelope) {
		if pid, ok := pids[env.Dst]; ok {
			p.Send(pid, env)
		}
	}
	rxElem := &pingElem{}
	rx := core.New(core.Config{ID: 2, Name: "rx", Elements: []core.Element{rxElem}, SendLower: lower})
	tx := core.New(core.Config{ID: 1, Name: "tx", Elements: []core.Element{&pingElem{peer: 2}}, SendLower: lower})
	pids[2] = k.Spawn(n, "rx", sim.NoPID, rx.Run)
	pids[1] = k.Spawn(n, "tx", sim.NoPID, tx.Run)
	var limit time.Duration
	firedBy(k, &limit, 100*time.Millisecond)
	ns, allocs := perOp(budget, func() int {
		before := rxElem.count
		firedBy(k, &limit, 100*time.Millisecond)
		return int(rxElem.count - before)
	})
	return ns / 1e3, allocs
}

// installWindow is how long the probes give an environment to install
// before they start timing steady state.
const installWindow = 60 * time.Second

// probeCluster builds an environment with no application (or only the
// relay service), times its install, and then times one simulated hour
// of steady state. It returns host µs for the install and host seconds
// for the hour.
func probeCluster(cl clusterSpec, relay bool) (installUS, hourS float64, err error) {
	c, err := reesift.NewCluster(cl.options()...)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	submitAt := 5 * time.Second
	if cl.wide {
		submitAt = 30 * time.Second
	}
	t0 := time.Now()
	c.Run(submitAt)
	installUS = float64(time.Since(t0).Microseconds())
	if relay {
		c.Submit(reesift.ChaosServiceApp(1, cl.nodeNames()[2], 0), c.Now())
	}
	c.Run(installWindow)
	t0 = time.Now()
	c.Run(installWindow + time.Hour)
	return installUS, time.Since(t0).Seconds(), nil
}

// probeSift returns the idle cost and install cost of the 4-node testbed
// and of the wide cluster, and the cost of one relay beat on the testbed.
func probeSift(s sizing, out map[string]float64) error {
	perSimS := func(hourS float64) float64 { return hourS * 1e6 / time.Hour.Seconds() }
	small, wide := clusterSpec{}, clusterSpec{nodes: s.wideNodes, shared: true, wide: true}

	// The testbed is cheap enough to repeat until the probe budget has
	// passed; the figures are medians.
	testbed := func(relay bool) (installUS, hourS float64, err error) {
		var installs, hours []float64
		for start := time.Now(); len(hours) == 0 || time.Since(start) < s.probe; {
			us, hour, err := probeCluster(small, relay)
			if err != nil {
				return 0, 0, err
			}
			installs, hours = append(installs, us), append(hours, hour)
		}
		return median(installs), median(hours), nil
	}
	install, idle, err := testbed(false)
	if err != nil {
		return err
	}
	out["sift.install_us.4"] = install
	out["sift.idle_us_per_sim_s.4"] = perSimS(idle)

	_, beating, err := testbed(true)
	if err != nil {
		return err
	}
	beats := time.Hour.Seconds() / 5 // the relay's default period is 5 s
	out["sift.beat_us"] = (beating - idle) * 1e6 / beats

	us, hour, err := probeCluster(wide, false)
	if err != nil {
		return err
	}
	out["sift.install_us.400"] = us
	out["sift.idle_us_per_sim_s.400"] = perSimS(hour)
	return nil
}

// probeCampaign measures the campaign engine: Map's per-trial overhead on
// a no-op trial, fan-out speed-up on a quarter campaign-rover round, and
// the share of executed trials a failure-quota search throws away.
func probeCampaign(s sizing, workers int, out map[string]float64) error {
	// Every arm runs on one P per worker, as the timed rounds do.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const noops = 200000
	for _, v := range []struct {
		key     string
		workers int
	}{{"campaign.map_overhead_us.1", 1}, {"campaign.map_overhead_us.n", workers}} {
		runtime.GOMAXPROCS(v.workers)
		ns, _ := perOp(s.probe, func() int {
			campaign.Map(v.workers, noops, func(run int) int { return run })
			return noops
		})
		out[v.key] = ns / 1e3
	}

	w, _ := lookupWorkload("campaign-rover")
	cells := w.cells(s.part(4))
	seed := campaign.DeriveSeed(1, "campaign-rover/fanout", 0)
	var digest [2]string
	var wall [2]float64
	for i, n := range []int{1, workers} {
		runtime.GOMAXPROCS(n)
		t0 := time.Now()
		trials := runRound(w, cells, seed, n)
		wall[i] = time.Since(t0).Seconds()
		if err := firstError(trials); err != nil {
			return fmt.Errorf("fan-out probe: %w", err)
		}
		digest[i] = foldDigests(trials)
	}
	if digest[0] != digest[1] {
		return fmt.Errorf("fan-out probe: digest %s at 1 worker, %s at %d", digest[0], digest[1], workers)
	}
	out["campaign.fanout_speedup"] = wall[0] / wall[1] // base: the 1-worker wall
	out["campaign.fanout_efficiency"] = wall[0] / wall[1] / float64(workers)

	res, err := reesift.Campaign{Name: "bench/until", Seed: 1, Workers: workers, Cells: []reesift.CampaignCell{{
		Name:         "Register/FTM",
		Runs:         s.scale(400),
		FailureQuota: s.scale(10),
		Injection:    reesift.Injection{Model: reesift.ModelRegister, Target: reesift.TargetFTM, Apps: []*reesift.AppSpec{reesift.RoverApp(1)}},
	}}}.Run()
	if err != nil {
		return fmt.Errorf("quota probe: %w", err)
	}
	executed := float64(res.Tally.Runs)
	out["campaign.until_waste_share"] = (executed - float64(res.Cells[0].Runs)) / executed
	return nil
}

// probeApps times the two applications fault-free with no SIFT
// environment around them, and the rover's FFT kernels at its image size.
func probeApps(budget time.Duration, out map[string]float64) error {
	standalone := func(name string, spec func() *sift.AppSpec) (float64, error) {
		var failed error
		ns, _ := perCall(budget, func() {
			k := sim.NewKernel(sim.DefaultConfig(1))
			defer k.Shutdown()
			done := sift.RunStandalone(k, spec(), time.Second)
			k.Run(10 * time.Minute)
			if _, ok := done(); !ok {
				failed = fmt.Errorf("%s probe: standalone run did not finish", name)
			}
		})
		return ns / 1e6, failed
	}
	var err error
	if out["apps.rover_ms"], err = standalone("rover", func() *sift.AppSpec {
		return rover.Spec(1, []string{"node-a1", "node-a2"}, rover.DefaultParams())
	}); err != nil {
		return err
	}
	if out["apps.otis_ms"], err = standalone("otis", func() *sift.AppSpec {
		return otis.Spec(1, []string{"node-b1", "node-b2"}, otis.DefaultParams())
	}); err != nil {
		return err
	}

	p := rover.DefaultParams()
	img := rover.GenerateImage(p.ImageSize, p.Seed)
	grid := make([][]complex128, len(img))
	for r := range img {
		grid[r] = make([]complex128, len(img[r]))
	}
	ns, _ := perCall(budget, func() {
		for r := range img {
			for c, v := range img[r] {
				grid[r][c] = complex(v, 0)
			}
		}
		err = fft.FFT2D(grid)
	})
	if err != nil {
		return fmt.Errorf("fft probe: %w", err)
	}
	out["fft.fft2d_us"] = ns / 1e3
	ns, _ = perCall(budget, func() { _, err = fft.DirectionalFilter(img, 0, 0.4) })
	if err != nil {
		return fmt.Errorf("fft probe: %w", err)
	}
	out["fft.directional_filter_us"] = ns / 1e3
	return nil
}

// probeTrace times Recorder.Emit behind its guard, and what recording
// costs a whole chaos trial run through a one-run traced Campaign.
func probeTrace(s sizing, out map[string]float64) error {
	rec := trace.NewRecorder(trace.Options{})
	r := trace.Record{Kind: trace.KindMsgSend, Op: "probe", Node: "node-a1", PID: 7, A: 1, B: 2}
	const batch = 1024
	ns, _ := perOp(s.probe, func() int {
		for i := 0; i < batch; i++ {
			if rec.Enabled() {
				r.At = time.Duration(i)
				rec.Emit(r)
			}
		}
		return batch
	})
	out["trace.emit_ns"] = ns

	w, _ := lookupWorkload("chaos-simday")
	// One trial; a tenth of full size is the smallest that keeps the
	// whole simulated day.
	one := w.cells(sizing{work: 0.1})[0]
	if s.work < 0.1 {
		one = w.cells(s)[0]
	}
	var wall [2]float64
	// The recorder's metric ticks are kernel events of their own, so the
	// traced trial fires more events; what must not move is what the trial
	// did, which for a chaos trial is its arrival count.
	var arrivals [2]int
	for i, spec := range []*reesift.TraceSpec{nil, {}} {
		t0 := time.Now()
		res, err := reesift.Campaign{Name: "bench/recorder", Seed: 1, Workers: 1, Trace: spec,
			Cells: []reesift.CampaignCell{{Name: one.name, Runs: 1, Injection: one.injection()}}}.Run()
		if err != nil {
			return fmt.Errorf("recorder probe: %w", err)
		}
		wall[i] = time.Since(t0).Seconds()
		arrivals[i] = res.Cells[0].Results[0].Chaos.Arrivals
	}
	if arrivals[0] != arrivals[1] {
		return fmt.Errorf("recorder probe: %d arrivals untraced, %d traced", arrivals[0], arrivals[1])
	}
	out["trace.recorder_overhead"] = wall[1] / wall[0] // base: the untraced wall
	return nil
}

// runProbes runs every workload-independent probe.
func runProbes(s sizing, workers int) (map[string]float64, error) {
	out := make(map[string]float64)
	out["sim.event_ns"] = probeEventLoop(s.probe, 0)
	out["sim.event_deep_ns"] = probeEventLoop(s.probe, 10000)
	out["sim.handoff_ns"], out["sim.handoff_allocs"] = probeHandoff(s.probe)
	out["sim.spawn_reap_us"] = probeSpawnReap(s.probe)
	var err error
	if out["core.codec_encode_ns"], out["core.codec_decode_ns"], err = probeCodec(s.probe); err != nil {
		return nil, err
	}
	if out["core.ckpt_commit_us"], out["core.ckpt_load_us"], err = probeCheckpoint(s.probe); err != nil {
		return nil, err
	}
	out["core.armor_msg_us"], out["core.armor_msg_allocs"] = probeArmorMsg(s.probe)
	for _, probe := range []func() error{
		func() error { return probeSift(s, out) },
		func() error { return probeCampaign(s, workers, out) },
		func() error { return probeApps(s.probe, out) },
		func() error { return probeTrace(s, out) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
