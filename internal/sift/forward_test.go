package sift

import (
	"testing"
	"time"

	"reesift/internal/core"
	"reesift/internal/sim"
)

// TestRetransmissionThroughDaemonsIsBitIdentical sends a reliable message
// from a real Execution ARMOR across two daemons to a process that never
// acknowledges. The daemons bump Hops in place on the one box that
// travels; every retransmission must still arrive exactly as the first
// transmission did — in a box of its own, with the hop count starting over
// from the sender's untouched copy.
func TestRetransmissionThroughDaemonsIsBitIdentical(t *testing.T) {
	k, env := newTestEnv(t, 21)
	k.Run(8 * time.Second)
	const appNode, armorNode = "node-b1", "node-b2"
	app := &AppSpec{ID: 9, Name: "mute", Ranks: 2, Nodes: []string{appNode, armorNode}}
	appAID, execAID := AIDApp(app.ID, 1), AIDExec(app.ID, 1)
	// The Execution ARMOR's daemon learns where the application's
	// pseudo-AID lives the way it would from a location broadcast.
	env.daemons[armorNode].nodeOf[appAID] = appNode

	var boxes []*core.Envelope
	var arrived []core.Envelope
	mute := k.Spawn(k.Node(appNode), "mute", sim.NoPID, func(p *sim.Proc) {
		p.Send(env.daemonPID[appNode], &LocalAttach{ID: appAID})
		for {
			if box, ok := p.Recv().Payload.(*core.Envelope); ok {
				boxes = append(boxes, box)
				arrived = append(arrived, *box)
			}
		}
	})
	send := func(dst core.AID, ev core.Event) {
		k.SendExternal(env.daemonPID[armorNode], &core.Envelope{Src: AIDFTM, Dst: dst, Event: ev})
	}
	k.Schedule(0, func() {
		send(env.DaemonAID(armorNode), InstallArmor{Spec: &ArmorSpec{
			ID: execAID, Kind: KindExecution, Name: "exec-mute", App: app, Rank: 1}}.Event())
	})
	// Binding the rank makes the ARMOR open the channel: a reliable send
	// to the application's pseudo-AID, retransmitted until acknowledged.
	k.Schedule(time.Second, func() { send(execAID, AppPID{AppID: app.ID, Rank: 1, PID: mute}.Event()) })
	k.Run(k.Now() + 8*time.Second)

	if len(arrived) < 3 {
		t.Fatalf("%d transmissions arrived, want the first and at least two retransmissions", len(arrived))
	}
	first := arrived[0]
	if _, ok := ChannelOpenOf(first.Event); !ok || first.Seq == 0 || first.Src != execAID {
		t.Fatalf("first arrival is not the reliable channel-open: %+v", first)
	}
	if first.Hops != 2 {
		t.Fatalf("hops = %d, want 2 (one per daemon)", first.Hops)
	}
	for i := 1; i < len(arrived); i++ {
		if arrived[i] != first {
			t.Errorf("retransmission %d differs from the first transmission:\n%+v\n%+v", i, arrived[i], first)
		}
		if boxes[i] == boxes[0] {
			t.Errorf("retransmission %d travelled in the first transmission's box", i)
		}
	}
}
