//go:build linux

package main

import (
	"syscall"
	"time"
)

// childAttr makes the kernel kill the server when the harness dies on a
// path no deferred stop covers (panic in another goroutine, SIGKILL).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// processCPU is the user + system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep
// parks on the netpoller, whose timeout has millisecond resolution, so
// it overshoots sub-millisecond waits by ~0.5 ms — most of the paced
// schedule's 0.8 ms interval.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
