package sim

import (
	"testing"
	"time"
)

// echoHandler answers every message to its sender. A message carrying
// the block payload is set aside for a borrowed coroutine, where it
// sleeps for nap before the answer.
type echoHandler struct {
	block interface{}
	nap   time.Duration
}

func (*echoHandler) Start(*Proc) {}

func (h *echoHandler) Handle(p *Proc, m Msg) {
	if h.block != nil && m.Payload == h.block {
		if !p.CanBlock() {
			p.Block(m)
			return
		}
		p.Sleep(h.nap)
	}
	p.Send(m.From, m.Payload)
}

// pingPong runs b.N round trips between a Recv-loop driver and an echo
// process made by spawnEcho.
func pingPong(b *testing.B, spawnEcho func(k *Kernel, n *Node) PID) {
	k := NewKernel(Config{Seed: 1, LocalLatency: time.Microsecond, RemoteLatency: time.Microsecond})
	b.Cleanup(k.Shutdown)
	n := k.AddNode("a")
	echo := spawnEcho(k, n)
	payload := interface{}(&struct{ beat int }{1})
	rounds := 0
	k.Spawn(n, "driver", NoPID, func(p *Proc) {
		for {
			p.Send(echo, payload)
			p.Recv()
			if rounds++; rounds == b.N {
				p.Kernel().Stop()
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(time.Duration(1 << 62))
}

// BenchmarkCoroutinePingPong is one round trip to a Recv-loop echo: two
// deliveries, each resuming a coroutine.
func BenchmarkCoroutinePingPong(b *testing.B) {
	pingPong(b, func(k *Kernel, n *Node) PID {
		return k.Spawn(n, "echo", NoPID, func(p *Proc) {
			for {
				m := p.Recv()
				p.Send(m.From, m.Payload)
			}
		})
	})
}

// BenchmarkHandlerPingPong is the same round trip to a handler-process
// echo: the echo's delivery is a call, the driver's a coroutine switch.
func BenchmarkHandlerPingPong(b *testing.B) {
	pingPong(b, func(k *Kernel, n *Node) PID {
		return k.SpawnHandler(n, "echo", NoPID, &echoHandler{})
	})
}
