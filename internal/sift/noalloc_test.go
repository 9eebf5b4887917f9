package sift

import (
	"testing"
	"time"

	"reesift/internal/analysis/noalloc/noalloctest"
	"reesift/internal/core"
	"reesift/internal/sim"
)

// TestNoallocRuntime is the measured half of the //reesift:noalloc
// contract for this package: the scenarios below must run at zero
// allocations, and every annotated function must be named by one.
func TestNoallocRuntime(t *testing.T) {
	noalloctest.Verify(t, []noalloctest.Check{snapshotCheck(), subscriptionsCheck(), payloadCheck(), forwardCheck(t)})
}

// checkedElements is one populated instance of every element type: the
// seven checkpointed ones plus the two that checkpoint nothing.
func checkedElements() []core.Element {
	els := []core.Element{&daemonElem{}, &submitElem{}}
	for _, c := range snapshotCases() {
		els = append(els, c.el)
	}
	return els
}

// snapshotCheck re-encodes every populated element into its scratch
// Encoder (core.Schema.Snapshot, whose own check is in core, walking this
// package's record declarations).
func snapshotCheck() noalloctest.Check {
	els := checkedElements()
	return noalloctest.Check{
		Name:   "element snapshots",
		Covers: []string{"daemonElem.Snapshot", "submitElem.Snapshot"},
		Run: func() {
			for _, el := range els {
				el.Snapshot()
			}
		},
	}
}

// subscriptionsCheck reads every element's subscription list, as the
// ARMOR runtime does at each install and reinstall.
func subscriptionsCheck() noalloctest.Check {
	els := checkedElements()
	return noalloctest.Check{
		Name: "element subscriptions",
		Covers: []string{"daemonElem.Subscriptions", "submitElem.Subscriptions", "NodeMgmtElem.Subscriptions",
			"MgrArmorInfoElem.Subscriptions", "ExecArmorInfoElem.Subscriptions", "AppParamElem.Subscriptions",
			"MgrAppDetectElem.Subscriptions", "HeartbeatElem.Subscriptions", "ExecElem.Subscriptions"},
		Run: func() {
			for _, el := range els {
				el.Subscriptions()
			}
		},
	}
}

// payloadCheck builds every typed protocol event and reads it back: the
// small payloads travel inline and an install carries its spec's pointer.
func payloadCheck() noalloctest.Check {
	cases := payloadCases()
	return noalloctest.Check{
		Name: "protocol payloads",
		Covers: []string{"rankEvent", "rankOf",
			"RegisterDaemon.Event", "RegisterDaemonOf", "InstallArmor.Event", "InstallArmorOf",
			"UninstallArmor.Event", "UninstallArmorOf", "ArmorFailed.Event", "ArmorFailedOf",
			"LaunchApp.Event", "LaunchAppOf", "AppPID.Event", "AppPIDOf", "PICreate.Event", "PICreateOf",
			"AppExiting.Event", "AppExitingOf", "AppComplete.Event", "AppCompleteOf",
			"AppFailed.Event", "AppFailedOf", "KillApp.Event", "KillAppOf",
			"KillAppDone.Event", "KillAppDoneOf", "AppDone.Event", "AppDoneOf",
			"ChannelOpen.Event", "ChannelOpenOf", "Location.Event", "LocationOf",
			"StaleSender.Event", "StaleSenderOf"},
		Run: func() {
			for _, c := range cases {
				if !c.roundTrip() {
					panic("payload did not round-trip: " + c.name)
				}
			}
		},
	}
}

// forwardCheck bounces one boxed envelope between a process and the
// daemons of a quiescent cluster: to a remote daemon, across to the
// process's own daemon, and back into its inbox — the gateway path of
// every ARMOR-to-ARMOR message, with no originated traffic in the window.
func forwardCheck(t *testing.T) noalloctest.Check {
	k, env := newTestEnv(t, 31)
	k.Run(25 * time.Second) // installed, and between two heartbeat rounds
	const home, far = "node-b1", "node-b2"
	const aid core.AID = 7777
	env.daemons[far].nodeOf[aid] = home
	rounds := 0
	k.Spawn(k.Node(home), "bounce", sim.NoPID, func(p *sim.Proc) {
		p.Send(env.daemonPID[home], &LocalAttach{ID: aid})
		box := &core.Envelope{Src: aid, Dst: aid}
		for {
			box.Hops = 0
			p.Send(env.daemonPID[far], box)
			if got := p.Recv().Payload; got != interface{}(box) || box.Hops != 2 {
				panic("envelope did not come back through two daemons")
			}
			rounds++
		}
	})
	limit := k.Now()
	return noalloctest.Check{
		Name:   "daemon forwarding",
		Covers: []string{"Daemon.forward", "Daemon.deliver"},
		Run: func() {
			before := rounds
			limit += 10 * time.Millisecond
			k.Run(limit)
			if rounds == before {
				panic("no envelope forwarded")
			}
		},
	}
}
