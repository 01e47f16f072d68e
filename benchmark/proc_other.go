//go:build !linux

package main

import (
	"syscall"
	"time"
)

// childAttr: no parent-death signal off Linux; the deferred stops and
// the context still cover every orderly exit.
func childAttr() *syscall.SysProcAttr { return nil }

// processCPU is not measured off Linux; the budget then reads 0.
func processCPU() time.Duration { return 0 }

func preciseSleep(d time.Duration) { time.Sleep(d) }
