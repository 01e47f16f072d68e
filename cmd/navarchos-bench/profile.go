package main

import (
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// startProfiles begins CPU and/or heap profiling and returns a stop
// function that flushes both to disk. stop is idempotent, so it can be
// deferred for the normal exit AND called explicitly on the fatal path:
// log.Fatal exits through os.Exit, which skips deferred calls, and that
// is exactly how the profiles of a failing run used to be lost.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					return
				}
				runtime.GC()              // settle the heap so the profile shows live objects
				pprof.WriteHeapProfile(f) //nolint:errcheck // best effort at exit
				f.Close()
			}
		})
	}, nil
}
