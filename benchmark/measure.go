package main

import (
	"runtime"
	"syscall"
	"time"
)

// cost is what one piece of host work took.
type cost struct {
	wall    float64 // seconds
	cpu     float64 // process user+sys seconds
	allocs  float64 // MemStats.Mallocs delta
	allocMB float64 // MemStats.TotalAlloc delta, MB
}

// measure runs fn once and returns its cost. A collection runs first so
// that one round does not pay for the garbage of the one before it.
func measure(fn func()) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return cost{
		wall:    wall,
		cpu:     c1 - c0,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
