package main

import (
	"syscall"
	"time"
)

// stopwatch times an interval in wall-clock, less the time the host took
// the CPU away from the process: it reads the smaller of the interval's
// wall time and the process's CPU time over it. The timed work never
// waits on I/O and always keeps at least one thread busy, so on an
// undisturbed machine its CPU time is at least its wall time and the
// reading is the wall time. When another tenant of a shared machine holds
// the CPU, wall time grows and CPU time does not.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

func (s stopwatch) elapsed() time.Duration {
	return min(time.Since(s.wall), cpuTime()-s.cpu)
}

func (s stopwatch) seconds() float64 { return s.elapsed().Seconds() }

// cpuTime is the process's user plus system CPU time, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return float64(ru.Maxrss) / 1024
}
