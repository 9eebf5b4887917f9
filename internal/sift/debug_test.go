package sift

import (
	"fmt"
	"testing"
	"time"

	"reesift/internal/sim"
	"reesift/internal/trace"
)

// TestDebugFTMCrash is a scaffolding test used while developing; it keeps
// a verbose trace of the FTM recovery flow.
func TestDebugFTMCrash(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("debug trace (run with -v -run TestDebugFTMCrash)")
	}
	k := sim.NewKernel(sim.DefaultConfig(6))
	defer k.Shutdown()
	rec := trace.NewRecorder(trace.Options{Buffer: 1 << 16})
	k.SetSink(rec)
	env := New(k, DefaultEnvConfig("n1", "n2", "n3", "n4", "n5", "n6"))
	env.Log.Sink = rec
	env.Setup()
	a1 := testAppSpec(1, 5, 2*time.Second)
	a1.Nodes = []string{"n1", "n2"}
	a2 := testAppSpec(2, 7, 2*time.Second)
	a2.Nodes = []string{"n3", "n4"}
	h1 := env.Submit(a1, 5*time.Second)
	h2 := env.Submit(a2, 5*time.Second)
	k.Run(3 * time.Minute)
	for _, r := range rec.Records() {
		fmt.Printf("%8.3fs TRACE %-11s %s node=%s pid=%d a=%d b=%d %s\n",
			r.At.Seconds(), r.Kind, r.Op, r.Node, r.PID, r.A, r.B, r.Detail)
	}
	fmt.Printf("done1=%v done2=%v\n", h1.Done, h2.Done)
}
