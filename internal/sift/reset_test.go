package sift

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"reesift/internal/sim"
)

// envTrial deploys env on its kernel k, runs a two-rank application
// through a SIGINT of its rank-0 Execution ARMOR and a crash and restart
// of the node hosting rank 1, shuts the kernel down, and returns what the
// run observed. k and env must be new or Reset.
func envTrial(k *sim.Kernel, env *Environment) string {
	env.Setup()
	h := env.Submit(testAppSpec(1, 6, 5*time.Second), 5*time.Second)
	k.Schedule(20*time.Second, func() { k.Kill(env.ProcOf(AIDExec(1, 0)), "SIGINT") })
	k.Schedule(30*time.Second, func() { k.CrashNode("node-a2") })
	k.Schedule(40*time.Second, func() { k.RestartNode("node-a2") })
	done := runUntilDone(k, env, h, 10*time.Minute)
	var b strings.Builder
	for e := range env.Log.Each() {
		fmt.Fprintf(&b, "%v %s %s\n", e.At, e.Kind, e.Detail())
	}
	fmt.Fprintf(&b, "done %v at %v restarts %d fired %d\ndetections %v\nrecoveries %v\napp detections %v\napp recoveries %v\n",
		done, h.DoneAt, h.Restarts, k.EventsFired(), env.Log.Detections, env.Log.Recoveries,
		env.Log.AppDetections, env.Log.AppRecoveries)
	for _, path := range k.SharedFS().List() {
		data, _ := k.SharedFS().Read(path)
		fmt.Fprintf(&b, "%s %x\n", path, data)
	}
	k.Shutdown()
	return b.String()
}

// resetTestConfig is the environment of the reset tests: the paper's
// testbed with centralized checkpoints.
func resetTestConfig() EnvConfig {
	cfg := DefaultEnvConfig()
	cfg.SharedCheckpoints = true
	return cfg
}

// TestEnvironmentResetMatchesNew runs a trial, shuts its kernel down, and
// Resets the kernel and the environment for a second one. The reset
// environment must equal a new one field by field, except for the storage
// Reset keeps, and must then run the same trial to the same observations
// as a new environment on a new kernel: the daemons Setup reuses and the
// ARMOR runtimes an install reuses carry nothing over.
func TestEnvironmentResetMatchesNew(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(5))
	env := New(k, resetTestConfig())
	first := envTrial(k, env)
	if !strings.Contains(first, "done true") || !strings.Contains(first, LogDaemonReinstalled.String()) ||
		len(env.Log.Recoveries) == 0 || len(env.setupDaemons) != 4 {
		t.Fatalf("the first trial did not reach the state under test:\n%s", first)
	}

	kcfg := sim.DefaultConfig(6)
	fk := sim.NewKernel(kcfg)
	fresh, reset := New(fk, resetTestConfig()), env.Reset(k.Reset(kcfg), resetTestConfig())
	if reset != env {
		t.Fatal("Reset returned another environment")
	}
	compareEnvironments(t, reset, fresh, k)
	if got, want := envTrial(k, reset), envTrial(fk, fresh); got != want {
		t.Fatalf("the reset environment ran\n%s\na new one ran\n%s", got, want)
	}
}

// compareEnvironments fails unless got, an Environment Reset on kernel k,
// agrees with want, a new one, on every field. It names each field of
// Environment and of EventLog, so a field added later fails the test until
// it is compared here. The kept storage is checked for being inert
// instead: the ARMOR runtimes, which ArmorOf must no longer report, the
// Execution ARMOR names, which must each spell their key, and the launch
// records, whose processes must all belong to an earlier deployment. The
// lower layers, the envelope free list (Boxes.Free zeroes every box it
// takes back) and the daemons Setup reuses (TestDaemonResetMatchesNew
// checks their Reset) are kept as they are.
func compareEnvironments(t *testing.T, got, want *Environment, k *sim.Kernel) {
	t.Helper()
	compared := []string{"K", "Log", "cfg", "nodes", "daemons", "daemonPID", "daemonEpoch", "sendLower", "execNames",
		"scc", "sccPID", "boxes", "setupDaemons", "armors", "procOfAID", "placement", "appSpecs", "appMem",
		"appPID", "appCtx", "handles", "launches", "deployment", "placeOf", "rankLoad", "AppDoneHook"}
	if typ := reflect.TypeFor[Environment](); typ.NumField() != len(compared) {
		t.Fatalf("Environment has %d fields, compareEnvironments knows %d: %v", typ.NumField(), len(compared), compared)
	}
	fail := func(field string, g, w any) { t.Errorf("%s = %v, new environment has %v", field, g, w) }
	if got.K != k {
		fail("K", got.K, k)
	}
	if !reflect.DeepEqual(got.cfg, want.cfg) {
		fail("cfg", got.cfg, want.cfg)
	}
	for _, f := range []struct {
		name string
		g, w int
	}{
		{"nodes", len(got.nodes), len(want.nodes)}, {"daemons", len(got.daemons), len(want.daemons)},
		{"daemonPID", len(got.daemonPID), len(want.daemonPID)}, {"daemonEpoch", len(got.daemonEpoch), len(want.daemonEpoch)},
		{"procOfAID", len(got.procOfAID), len(want.procOfAID)}, {"placement", len(got.placement), len(want.placement)},
		{"appSpecs", len(got.appSpecs), len(want.appSpecs)}, {"appMem", len(got.appMem), len(want.appMem)},
		{"appPID", len(got.appPID), len(want.appPID)}, {"appCtx", len(got.appCtx), len(want.appCtx)},
		{"handles", len(got.handles), len(want.handles)}, {"placeOf", len(got.placeOf), len(want.placeOf)},
		{"rankLoad", len(got.rankLoad), len(want.rankLoad)},
	} {
		if f.g != f.w {
			fail("len("+f.name+")", f.g, f.w)
		}
	}
	if got.scc != want.scc || got.sccPID != want.sccPID {
		fail("scc, sccPID", []any{got.scc, got.sccPID}, []any{want.scc, want.sccPID})
	}
	if (got.AppDoneHook == nil) != (want.AppDoneHook == nil) {
		fail("AppDoneHook", got.AppDoneHook, want.AppDoneHook)
	}
	for key, name := range got.execNames {
		if want := fmt.Sprintf("exec-%d-%d", key.app, key.rank); name != want {
			fail("execNames", name, want)
		}
	}
	for key, l := range got.launches {
		if l.deployment >= got.deployment || l.name != fmt.Sprintf("%s-r%d", l.app.Name, key.rank) {
			t.Errorf("launch record %v: deployment %d of %d, name %q", key, l.deployment, got.deployment, l.name)
		}
	}
	if want.deployment != 1 || got.deployment <= 1 {
		fail("deployment", got.deployment, want.deployment)
	}
	for aid := range got.armors {
		if a := got.ArmorOf(aid); a != nil {
			t.Errorf("ArmorOf(%v) reports the runtime of an earlier deployment", aid)
		}
	}
	compareLogs(t, got.Log, want.Log)
}

// compareLogs fails unless got, a Reset log, is as empty as want, a new
// one. Reset keeps the entry chunks, which are checked for being cleared.
func compareLogs(t *testing.T, got, want *EventLog) {
	t.Helper()
	compared := []string{"Detections", "AppDetections", "Recoveries", "AppRecoveries", "Sink", "chunks",
		"inline", "stored", "first", "last", "counts", "fold", "pending", "pendingApp", "interned"}
	if typ := reflect.TypeFor[EventLog](); typ.NumField() != len(compared) {
		t.Fatalf("EventLog has %d fields, compareLogs knows %d: %v", typ.NumField(), len(compared), compared)
	}
	for _, f := range []struct {
		name string
		g, w any
	}{
		{"len(Detections)", len(got.Detections), len(want.Detections)},
		{"len(AppDetections)", len(got.AppDetections), len(want.AppDetections)},
		{"len(Recoveries)", len(got.Recoveries), len(want.Recoveries)},
		{"len(AppRecoveries)", len(got.AppRecoveries), len(want.AppRecoveries)},
		{"Sink", got.Sink, want.Sink}, {"len(chunks)", len(got.chunks), len(want.chunks)},
		{"stored", got.stored, want.stored}, {"first", got.first, want.first}, {"last", got.last, want.last},
		{"counts", got.counts, want.counts}, {"fold", got.fold, want.fold},
		{"len(pending)", len(got.pending), len(want.pending)}, {"len(pendingApp)", len(got.pendingApp), len(want.pendingApp)},
		{"len(interned)", len(got.interned), len(want.interned)},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			t.Errorf("log %s = %v, new log has %v", f.name, f.g, f.w)
		}
	}
	for c, chunk := range got.chunks[:cap(got.chunks)] {
		if len(chunk) > 0 || slices.ContainsFunc(chunk[:cap(chunk)], func(e LogEntry) bool { return e != LogEntry{} }) {
			t.Errorf("kept chunk %d not emptied (len %d)", c, len(chunk))
		}
	}
}

// TestDaemonResetMatchesNew runs a trial, shuts its kernel down, and
// Resets one of its daemons onto a node of the Reset kernel. The reset
// daemon must equal a new daemon of the same node field by field.
func TestDaemonResetMatchesNew(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(5))
	env := New(k, resetTestConfig())
	envTrial(k, env)
	d := env.setupDaemons[1]
	if len(d.localPID) == 0 || len(d.nodeOf) == 0 || len(d.daemonPIDs) == 0 || len(d.children) == 0 ||
		len(d.armorEpoch) == 0 || d.sccPID == sim.NoPID || cap(d.ayaScratch) == 0 {
		t.Fatalf("the daemon did not reach the state under test: %+v", *d)
	}

	kcfg := sim.DefaultConfig(6)
	fk := sim.NewKernel(kcfg)
	fenv := New(fk, resetTestConfig())
	env.Reset(k.Reset(kcfg), resetTestConfig())
	n := k.AddNode("node-x")
	got, want := d.Reset(env, n, AIDDaemon(1)), NewDaemon(fenv, fk.AddNode("node-x"), AIDDaemon(1))
	if got != d {
		t.Fatal("Reset returned another daemon")
	}
	compareDaemons(t, got, want, env, n)
}

// TestDaemonResetKeepsNodeConfig Resets a daemon onto a node of its own
// name, and then onto one of another name, which the Reset kernel builds
// from the same node struct. Both keep the ARMOR's element; the first
// keeps its name and the second names it anew. Each must equal a new
// daemon of its node.
func TestDaemonResetKeepsNodeConfig(t *testing.T) {
	k := sim.NewKernel(sim.DefaultConfig(5))
	env := New(k, resetTestConfig())
	envTrial(k, env)
	d := env.setupDaemons[1]
	own, el := d.node.Name(), d.armor.Element("daemon_core")
	for _, host := range []string{own, "node-x"} {
		kcfg := sim.DefaultConfig(6)
		fk := sim.NewKernel(kcfg)
		fenv := New(fk, resetTestConfig())
		k.Shutdown()
		env.Reset(k.Reset(kcfg), resetTestConfig())
		n := k.AddNode(host)
		got, want := d.Reset(env, n, AIDDaemon(1)), NewDaemon(fenv, fk.AddNode(host), AIDDaemon(1))
		compareDaemons(t, got, want, env, n)
		if got.armor.Element("daemon_core") != el {
			t.Errorf("Reset onto %s built a new element", host)
		}
		if got.procName() != want.procName() {
			t.Errorf("Reset onto %s: process name %q, new daemon %q", host, got.procName(), want.procName())
		}
		fk.Shutdown()
	}
}

// compareDaemons fails unless got, a daemon Reset into env on node n,
// agrees with want, a new one, on every field. It names each field of
// Daemon, so a field added later fails the test until it is compared
// here. The ARMOR runtime is compared through its accessors (its own
// Reset is TestResetMatchesNew's), and the AYA scratch by length.
func compareDaemons(t *testing.T, got, want *Daemon, env *Environment, n *sim.Node) {
	t.Helper()
	compared := []string{"env", "node", "aid", "armor", "localPID", "nodeOf", "daemonPIDs", "sccPID",
		"children", "expectedDeath", "armorEpoch", "localEpoch", "ayaOutstanding", "ayaScratch",
		"installDelay", "ayaPeriod"}
	if typ := reflect.TypeFor[Daemon](); typ.NumField() != len(compared) {
		t.Fatalf("Daemon has %d fields, compareDaemons knows %d: %v", typ.NumField(), len(compared), compared)
	}
	for _, f := range []struct {
		name string
		g, w any
	}{
		{"env", got.env == env, true}, {"node", got.node == n, true}, {"aid", got.aid, want.aid},
		{"armor.ID", got.armor.ID(), want.armor.ID()}, {"armor.Epoch", got.armor.Epoch(), want.armor.Epoch()},
		{"armor.Elements", len(got.armor.Elements()), len(want.armor.Elements())},
		{"armor.Checkpoint", got.armor.Checkpoint(), want.armor.Checkpoint()},
		{"armor.Restored", got.armor.Restored, want.armor.Restored},
		{"len(localPID)", len(got.localPID), len(want.localPID)}, {"len(nodeOf)", len(got.nodeOf), len(want.nodeOf)},
		{"len(daemonPIDs)", len(got.daemonPIDs), len(want.daemonPIDs)}, {"sccPID", got.sccPID, want.sccPID},
		{"len(children)", len(got.children), len(want.children)},
		{"len(expectedDeath)", len(got.expectedDeath), len(want.expectedDeath)},
		{"len(armorEpoch)", len(got.armorEpoch), len(want.armorEpoch)},
		{"len(localEpoch)", len(got.localEpoch), len(want.localEpoch)},
		{"len(ayaOutstanding)", len(got.ayaOutstanding), len(want.ayaOutstanding)},
		{"len(ayaScratch)", len(got.ayaScratch), len(want.ayaScratch)},
		{"installDelay", got.installDelay, want.installDelay}, {"ayaPeriod", got.ayaPeriod, want.ayaPeriod},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			t.Errorf("daemon %s = %v, new daemon has %v", f.name, f.g, f.w)
		}
	}
	if el, ok := got.armor.Element("daemon_core").(*daemonElem); !ok || el.d != got {
		t.Errorf("the reset daemon's ARMOR does not run its own daemon element")
	}
}
