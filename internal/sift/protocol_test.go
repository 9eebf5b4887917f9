package sift

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// payloadCase is one protocol kind whose payload has a typed constructor
// and accessor: a payload with every field set, the event its constructor
// builds, and the accessor's verdicts.
type payloadCase struct {
	name    string
	payload any
	ev      core.Event
	// roundTrip reports whether the accessor reads the constructor's
	// event back as the payload. It boxes nothing.
	roundTrip func() bool
	// accepts reports whether the accessor reads ev as its kind.
	accepts func(ev core.Event) bool
}

func payloadOf[T comparable](x T, event func(T) core.Event, of func(core.Event) (T, bool)) payloadCase {
	return payloadCase{
		name:    reflect.TypeFor[T]().String(),
		payload: x,
		ev:      event(x),
		roundTrip: func() bool {
			got, ok := of(event(x))
			return ok && got == x
		},
		accepts: func(ev core.Event) bool {
			_, ok := of(ev)
			return ok
		},
	}
}

// payloadCases lists every kind with a typed constructor and accessor.
func payloadCases() []payloadCase {
	spec := &ArmorSpec{ID: AIDExec(3, 1), Kind: KindExecution, Name: "exec-3-1", Rank: 1}
	return []payloadCase{
		payloadOf(core.InstallAck{ID: AIDExec(3, 1), PID: 42}, core.InstallAck.Event, core.InstallAckOf),
		payloadOf(RegisterDaemon{Hostname: "node-a2", DaemonAID: AIDDaemon(1), Epoch: 2}, RegisterDaemon.Event, RegisterDaemonOf),
		payloadOf(InstallArmor{Spec: spec}, InstallArmor.Event, InstallArmorOf),
		payloadOf(UninstallArmor{ID: AIDExec(3, 1)}, UninstallArmor.Event, UninstallArmorOf),
		payloadOf(ArmorFailed{ID: AIDExec(3, 1), Hang: true, Reason: "hang"}, ArmorFailed.Event, ArmorFailedOf),
		payloadOf(LaunchApp{AppID: 3, Restart: 2}, LaunchApp.Event, LaunchAppOf),
		payloadOf(AppPID{AppID: 3, Rank: 1, PID: 17}, AppPID.Event, AppPIDOf),
		payloadOf(PICreate{AppID: 3, Rank: 1, Period: 5 * time.Second}, PICreate.Event, PICreateOf),
		payloadOf(AppExiting{AppID: 3, Rank: 1}, AppExiting.Event, AppExitingOf),
		payloadOf(AppComplete{AppID: 3, Rank: 1}, AppComplete.Event, AppCompleteOf),
		payloadOf(AppFailed{AppID: 3, Rank: 1, Hang: true, Reason: "watchdog expired"}, AppFailed.Event, AppFailedOf),
		payloadOf(KillApp{AppID: 3}, KillApp.Event, KillAppOf),
		payloadOf(KillAppDone{AppID: 3, Rank: 1}, KillAppDone.Event, KillAppDoneOf),
		payloadOf(AppDone{AppID: 3, Restarts: 2}, AppDone.Event, AppDoneOf),
		payloadOf(ChannelOpen{AppID: 3, Rank: 1}, ChannelOpen.Event, ChannelOpenOf),
		payloadOf(Location{ID: AIDExec(3, 1), Node: "node-b1", Epoch: 4}, Location.Event, LocationOf),
		payloadOf(StaleSender{ID: AIDHeartbeat, SeenEpoch: 3, KnownEpoch: 5, Node: "node-a1"}, StaleSender.Event, StaleSenderOf),
	}
}

// TestPayloadRoundTrip checks every typed constructor against its
// accessor: x's event reads back as x, and the accessor rejects the event
// of every other kind, including kinds whose payload stays in Data.
func TestPayloadRoundTrip(t *testing.T) {
	cases := payloadCases()
	others := []core.Event{
		{Kind: core.EventAreYouAlive}, {Kind: core.EventTimer, Data: hbRoundTag{}},
		{Kind: EvProgress, Data: &Progress{AppID: 3, Rank: 1}, N: 9},
		{Kind: EvSubmitApp, Data: SubmitApp{App: &AppSpec{ID: 3}}},
		{Kind: EvAppPIDs, Data: AppPIDs{AppID: 3, PIDs: map[int]sim.PID{1: 17}}},
	}
	kinds := make(map[core.EventKind]string)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := reflect.ValueOf(c.payload)
			for i := range v.NumField() {
				if v.Field(i).IsZero() {
					t.Errorf("field %s is zero: a dropped field would go unseen", v.Type().Field(i).Name)
				}
			}
			if prev, dup := kinds[c.ev.Kind]; dup {
				t.Errorf("kind %s is also %s's", c.ev.Kind, prev)
			}
			kinds[c.ev.Kind] = c.name
			if !c.roundTrip() {
				t.Errorf("%+v did not read back from its event %+v", c.payload, c.ev)
			}
			for _, o := range cases {
				if o.name != c.name && c.accepts(o.ev) {
					t.Errorf("the accessor reads %s's event %+v", o.name, o.ev)
				}
			}
			for _, ev := range others {
				if c.accepts(ev) {
					t.Errorf("the accessor reads %+v", ev)
				}
			}
		})
	}
}

// TestLocationBroadcastAllocatesNothing pins a warm location broadcast on a
// wide cluster at zero allocations: the FTM sends one placement to each of
// 120 daemons, through its node's daemon, and each updates its routing
// cache and frees the envelope box. The placement travels inline in the
// event, and every box comes from the cluster's free list.
//
// Not parallel: AllocsPerRun counts every allocation in the process.
func TestLocationBroadcastAllocatesNothing(t *testing.T) {
	const daemons = 120
	nodes := make([]string, daemons)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node-%03d", i)
	}
	k := sim.NewKernel(sim.DefaultConfig(1))
	t.Cleanup(k.Shutdown)
	env := New(k, DefaultEnvConfig(nodes...))
	env.Setup()
	k.Run(time.Minute) // every daemon registered with the FTM
	ftm := env.ArmorOf(AIDFTM)
	if n := env.Log.Count(LogDaemonRegistered); ftm == nil || n != daemons {
		t.Fatalf("%d of %d daemons registered (FTM %v)", n, daemons, ftm)
	}
	f := ftm.Element("node_mgmt").(*NodeMgmtElem).ftm

	const aid core.AID = 7777
	home := nodes[daemons/2]
	broadcasts := 0
	caller := k.Spawn(k.Node(nodes[0]), "broadcast", sim.NoPID, func(p *sim.Proc) {
		ctx := &core.Ctx{Armor: ftm, Proc: p}
		for {
			p.Recv()
			f.broadcastLocation(ctx, aid, home, 0)
			broadcasts++
		}
	})
	limit := k.Now()
	allocs := testing.AllocsPerRun(20, func() {
		k.SendExternal(caller, struct{}{})
		limit += 10 * time.Millisecond
		k.Run(limit)
	})
	if broadcasts != 21 {
		t.Fatalf("%d broadcasts ran, want 21", broadcasts)
	}
	for _, name := range nodes {
		if got := env.daemons[name].nodeOf[aid]; got != home {
			t.Fatalf("daemon on %s places %v on %q, want %q", name, aid, got, home)
		}
	}
	if allocs != 0 {
		t.Fatalf("a location broadcast to %d daemons allocates %.1f objects, want 0", daemons, allocs)
	}
}
