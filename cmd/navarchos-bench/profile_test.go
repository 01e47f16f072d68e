package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// checkPprofFile asserts a pprof output exists and looks like a gzipped
// protobuf (pprof's on-disk format), i.e. the profile was flushed.
func checkPprofFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("%s is not a gzipped pprof profile (%d bytes, % x...)", path, len(data), data[:min(4, len(data))])
	}
}

func TestStartProfilesStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // second call must be a no-op, not a crash or truncation
	checkPprofFile(t, cpu)
	checkPprofFile(t, mem)
}

// TestFatalFlushesProfiles is the regression test for profiles lost on
// error paths: log.Fatal exits through os.Exit, skipping deferred
// flushes, so fatal() must flush explicitly before exiting. The test
// re-execs itself so the real exit path runs.
func TestFatalFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	if os.Getenv("BENCH_FATAL_HELPER") == "1" {
		stop, err := startProfiles(os.Getenv("BENCH_CPU"), os.Getenv("BENCH_MEM"))
		if err != nil {
			os.Exit(3)
		}
		stopProfiles = stop
		defer stop() // skipped by os.Exit — exactly the old bug
		fatalf("simulated experiment failure")
		os.Exit(3) // unreachable
	}

	cmd := exec.Command(os.Args[0], "-test.run=TestFatalFlushesProfiles$")
	cmd.Env = append(os.Environ(),
		"BENCH_FATAL_HELPER=1", "BENCH_CPU="+cpu, "BENCH_MEM="+mem)
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("helper should exit 1 via log.Fatalf, got %v", err)
	}
	checkPprofFile(t, cpu)
	checkPprofFile(t, mem)
}

// TestRemovedPerfExperimentRejected pins the exhibit list: the timing
// experiments moved to benchmark/ and the related-work baselines are
// gone, so asking for one must fail with the usage line naming only the
// paper exhibits, not run nothing and exit 0. The test re-execs itself so the real flag parsing and exit path
// run.
func TestRemovedPerfExperimentRejected(t *testing.T) {
	if os.Getenv("BENCH_MAIN_HELPER") == "1" {
		os.Args = []string{"navarchos-bench", "-scale", "small", "-experiment", os.Getenv("BENCH_EXPERIMENT")}
		main()
		os.Exit(0)
	}
	const want = "(want fig1 fig2 fig4 fig5 fig6 fig7 table1 table2 table3 fig8 or all)"
	for _, name := range []string{"perf", "gridperf", "checkpoint", "fitperf", "scoreperf", "ingest", "handoff", "baselines"} {
		cmd := exec.Command(os.Args[0], "-test.run=TestRemovedPerfExperimentRejected$")
		cmd.Env = append(os.Environ(), "BENCH_MAIN_HELPER=1", "BENCH_EXPERIMENT="+name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("-experiment %s should exit 1 via log.Fatalf, got %v", name, err)
		}
		if got := stderr.String(); !strings.Contains(got, "unknown experiment \""+name+"\"") || !strings.Contains(got, want) {
			t.Fatalf("-experiment %s stderr = %q, want the usage line %q", name, got, want)
		}
	}
}
