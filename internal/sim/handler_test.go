package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// op is one message of the equivalence schedule.
type op struct {
	kind byte // 'e' echo, 's' sleep n µs, 't' timer in n µs, 'c' Crash, 'p' panic, 'x' Exit
	n    int
}

// subject is the logic under test, run either as a handler process or by a
// Recv loop: it logs every message, and acts on ops.
type subject struct {
	log  *strings.Builder
	sink PID
}

func (s *subject) Start(p *Proc) { fmt.Fprintf(s.log, "%v %s start\n", p.Now(), p.Name()) }

func (s *subject) Handle(p *Proc, m Msg) {
	if o, ok := m.Payload.(op); ok && o.kind == 's' && !p.CanBlock() {
		p.Block(m)
		return
	}
	s.step(p, m)
}

func (s *subject) step(p *Proc, m Msg) {
	fmt.Fprintf(s.log, "%v %s got %v from %d\n", p.Now(), p.Name(), m.Payload, m.From)
	o, ok := m.Payload.(op)
	if !ok {
		return
	}
	switch o.kind {
	case 'e':
		p.Send(s.sink, o)
	case 's':
		p.Sleep(time.Duration(o.n) * time.Microsecond)
		fmt.Fprintf(s.log, "%v %s woke\n", p.Now(), p.Name())
		p.Send(s.sink, o)
	case 't':
		p.After(time.Duration(o.n)*time.Microsecond, "timer")
	case 'c':
		p.Crash("asked to")
	case 'p':
		panic("asked to")
	case 'x':
		p.Exit(3, "asked to")
	}
}

// equivScenario runs one random schedule against eight subjects, one per
// node, each meeting a different end: none, Kill, Suspend then Kill, a
// node crash, Crash, a panic, Exit, and a node crash while a sleep
// message is parked. With handlers false the subjects are Recv-loop body
// processes; with true, handler processes. It returns everything the
// subjects, their parent and the sink saw, and the exit statuses.
func equivScenario(seed int64, handlers bool) string {
	k := NewKernel(Config{Seed: seed, LocalLatency: 100 * time.Microsecond,
		RemoteLatency: time.Millisecond, LatencyJitter: 50 * time.Microsecond})
	plan := rand.New(rand.NewSource(seed))
	at := func(max time.Duration) time.Duration { return time.Duration(1 + plan.Int63n(int64(max))) }
	var log strings.Builder
	home := k.AddNode("home")
	sink := k.Spawn(home, "sink", NoPID, func(p *Proc) {
		for {
			m := p.Recv()
			fmt.Fprintf(&log, "%v sink got %v from %d\n", p.Now(), m.Payload, m.From)
		}
	})
	const subjects = 8
	pids := make([]PID, subjects)
	k.Spawn(home, "parent", NoPID, func(p *Proc) {
		for i := range pids {
			n := k.AddNode(fmt.Sprintf("n%d", i))
			s := &subject{log: &log, sink: sink}
			name := fmt.Sprintf("subject%d", i)
			if handlers {
				pids[i] = p.SpawnChildHandler(n, name, s)
			} else {
				pids[i] = p.SpawnChild(n, name, func(p *Proc) {
					s.Start(p)
					for {
						s.step(p, p.Recv())
					}
				})
			}
		}
		for {
			if ce, ok := p.Recv().Payload.(*ChildExit); ok {
				fmt.Fprintf(&log, "%v parent: %s exit %d %s\n", p.Now(), ce.Name, ce.Code, ce.Reason)
			}
		}
	})
	k.Run(0) // spawn the subjects
	const horizon = 20 * time.Millisecond
	kinds := "eeeeesssstt"
	for i, pid := range pids {
		traffic := 10 + plan.Intn(30)
		if i == 7 {
			traffic = 0 // its one sleep must be in progress at the crash
		}
		for range traffic {
			o := op{kind: kinds[plan.Intn(len(kinds))], n: plan.Intn(3000)}
			k.Schedule(at(horizon), func() { k.SendExternal(pid, o) })
		}
		node := fmt.Sprintf("n%d", i)
		switch i {
		case 1:
			k.Schedule(at(horizon), func() { k.Kill(pid, "sigint") })
		case 2:
			stop := at(horizon / 2)
			k.Schedule(stop, func() { k.Suspend(pid) })
			k.Schedule(stop+at(horizon/2), func() { k.Kill(pid, "recovery") })
		case 3:
			k.Schedule(at(horizon), func() { k.CrashNode(node) })
		case 4, 5, 6:
			k.Schedule(at(horizon), func() { k.SendExternal(pid, op{kind: "cpx"[i-4]}) })
		case 7:
			t := at(horizon / 2)
			k.Schedule(t, func() { k.SendExternal(pid, op{kind: 's', n: 5000}) })
			k.Schedule(t+2*time.Millisecond, func() { k.CrashNode(node) })
		}
	}
	k.Run(10 * horizon) // long enough to drain every backlog of sleeps
	fmt.Fprintf(&log, "live %d fired %d sent %d\n", k.LiveProcs(), k.EventsFired(), k.MessagesSent())
	k.Shutdown()
	for _, pid := range pids {
		e := k.Exit(pid)
		fmt.Fprintf(&log, "pid %d exit %d %q at %v\n", pid, e.Code, e.Reason, e.At)
	}
	return log.String()
}

// TestHandlerMatchesRecvLoop is the equivalence property: for random
// message schedules, a handler process and a Recv-loop process see the
// same deliveries at the same times, send the same messages, and end with
// the same exit statuses.
func TestHandlerMatchesRecvLoop(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for seed := range int64(seeds) {
		loop, handler := equivScenario(seed, false), equivScenario(seed, true)
		if loop != handler {
			a, b := strings.Split(loop, "\n"), strings.Split(handler, "\n")
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("seed %d: first difference at line %d:\nRecv loop: %s\nhandler:   %s", seed, i+1, a[i], b[i])
				}
			}
			t.Fatalf("seed %d: traces differ in length (%d vs %d lines)", seed, len(a), len(b))
		}
		for _, want := range []string{
			"subject1 exit 137 sigint", "subject2 exit 137 recovery", "subject3 exit 137 node n3 failure", "subject4 exit 134 asked to",
			"subject5 exit 139 segmentation fault: asked to", "subject6 exit 3 asked to",
			"subject7 got {115 5000}", "subject7 exit 137 node n7 failure",
		} {
			if !strings.Contains(handler, want) {
				t.Fatalf("seed %d: trace lacks %q:\n%s", seed, want, handler)
			}
		}
		if strings.Contains(handler, "subject7 woke") {
			t.Fatalf("seed %d: subject 7 woke from the sleep its node crash should have cut:\n%s", seed, handler)
		}
	}
}

// TestHandlerScenarioLeaksNoGoroutines checks that a handler's borrowed
// coroutine goes back to the pool however its message ends, a node crash
// while it is parked included. A first pass over the seeds fills the pool
// to their peak demand; over a second pass the goroutine count (pooled
// coroutines included) must not grow.
func TestHandlerScenarioLeaksNoGoroutines(t *testing.T) {
	const seeds = 30
	for i := range seeds {
		equivScenario(int64(i), true)
	}
	before := runtime.NumGoroutine()
	for i := range seeds {
		equivScenario(int64(i), true)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d over %d scenarios", before, after, seeds)
	}
}

// blockingHandler calls one blocking method inline, which a handler may
// not do.
type blockingHandler struct{ call func(*Proc) }

func (blockingHandler) Start(*Proc) {}

func (h blockingHandler) Handle(p *Proc, m Msg) { h.call(p) }

// TestHandlerMisuseNamesTheProcess checks that a handler process that
// blocks outside Block panics out of Run with a message naming it, instead
// of being reported as a segmentation fault of the simulated process.
func TestHandlerMisuseNamesTheProcess(t *testing.T) {
	for name, call := range map[string]func(*Proc){
		"Recv":        func(p *Proc) { p.Recv() },
		"RecvTimeout": func(p *Proc) { p.RecvTimeout(time.Second) },
		"Sleep":       func(p *Proc) { p.Sleep(time.Second) },
	} {
		t.Run(name, func(t *testing.T) {
			k := NewKernel(Config{Seed: 1})
			pid := k.SpawnHandler(k.AddNode("a"), "router", NoPID, blockingHandler{call: call})
			k.SendExternal(pid, "go")
			err := runRecovering(k)
			var misuse handlerMisuse
			if !errors.As(err, &misuse) {
				t.Fatalf("Run ended with %v, want a handler misuse panic", err)
			}
			for _, want := range []string{name + " called", `handler process "router"`} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("panic %q lacks %q", err, want)
				}
			}
			if e := k.Exit(pid); e != nil {
				t.Errorf("misuse ended the simulated process: %+v", e)
			}
		})
	}
	t.Run("Block in a body process", func(t *testing.T) {
		k := NewKernel(Config{Seed: 1})
		k.Spawn(k.AddNode("a"), "body", NoPID, func(p *Proc) { p.Block(Msg{}) })
		var misuse handlerMisuse
		if err := runRecovering(k); !errors.As(err, &misuse) || !strings.Contains(err.Error(), `"body"`) {
			t.Fatalf("Run ended with %v, want a misuse panic naming the process", err)
		}
	})
}

// runRecovering runs k and returns the error value it panicked with.
func runRecovering(k *Kernel) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err, _ = r.(error)
			if err == nil {
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	k.Run(time.Minute)
	return nil
}

// hangHandler hangs on the message "hang" and logs every other one.
type hangHandler struct{ got []string }

func (*hangHandler) Start(*Proc) {}

func (h *hangHandler) Handle(p *Proc, m Msg) {
	if m.Payload == "hang" {
		p.Hang()
	}
	h.got = append(h.got, fmt.Sprint(m.Payload))
}

// TestHandlerHangAbandonsMessage checks Hang in a handler: the message
// is abandoned, later ones queue while the process is hung and are never
// handled, and a kill ends it.
func TestHandlerHangAbandonsMessage(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	h := &hangHandler{}
	pid := k.SpawnHandler(k.AddNode("a"), "hanger", NoPID, h)
	for _, m := range []string{"one", "hang", "two"} {
		k.SendExternal(pid, m)
	}
	k.Run(time.Millisecond)
	if !k.Suspended(pid) || strings.Join(h.got, " ") != "one" {
		t.Fatalf("after the hang: suspended %v, handled %q; want true, [one]", k.Suspended(pid), h.got)
	}
	k.SendExternal(pid, "three")
	k.Run(2 * time.Millisecond)
	k.Kill(pid, "done")
	k.Run(3 * time.Millisecond)
	if e := k.Exit(pid); e == nil || e.Code != 137 {
		t.Fatalf("exit %+v, want code 137", e)
	}
	if got := strings.Join(h.got, " "); got != "one" {
		t.Fatalf("after the kill handled %q, want \"one\"", got)
	}
}
