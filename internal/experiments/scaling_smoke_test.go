package experiments

import (
	"os"
	"runtime"
	"testing"

	"github.com/navarchos/pdm/internal/fleetsim"
)

// TestShardScalingSmoke is the `make scaling-smoke` CI gate: at bench
// scale, shards=2 must not be slower than shards=1 by more than the
// repeats' own run-to-run spread — the floor under the scaling claim,
// catching regressions like BENCH_2's shards=2 run losing to shards=1
// without failing on a deficit the two runs' noise already covers (a
// bare `<` failed three runs in four on an unchanged tree on a busy
// 2-CPU host). Timing-sensitive, so it is opt-in
// via SCALING_SMOKE_GATE (the overhead-gate idiom) and skips with a
// logged reason on hosts that cannot run the claim — fewer than 2
// usable CPUs, detected with the same InsufficientCPU rule the perf
// exhibit uses to flag its published curve.
func TestShardScalingSmoke(t *testing.T) {
	if os.Getenv("SCALING_SMOKE_GATE") == "" {
		t.Skip("set SCALING_SMOKE_GATE=1 to run the shard-scaling gate")
	}
	if InsufficientCPU(2) {
		t.Skipf("host has %d CPU(s): shards=2 would time-slice one core (insufficient_cpu) — gate skipped",
			runtime.NumCPU())
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d (<2): the scheduler cannot run two shards in parallel — gate skipped",
			runtime.GOMAXPROCS(0))
	}
	res, err := Perf(&Options{FleetConfig: fleetsim.BenchConfig()}, []int{1, 2})
	if err != nil {
		t.Fatalf("perf run: %v", err)
	}
	var r1, r2 *PerfRun
	for i := range res.Runs {
		switch res.Runs[i].Shards {
		case 1:
			r1 = &res.Runs[i]
		case 2:
			r2 = &res.Runs[i]
		}
	}
	if r1 == nil || r2 == nil {
		t.Fatalf("perf run missing shard counts: got %d runs", len(res.Runs))
	}
	t.Logf("shards=1: %.0f records/s, shards=2: %.0f records/s (%.2fx, median of %d repeats)",
		r1.RecordsPerSec, r2.RecordsPerSec, r2.RecordsPerSec/r1.RecordsPerSec, r1.Repeats)
	deficit, spread := r2.Seconds-r1.Seconds, r1.SecondsStddev+r2.SecondsStddev
	t.Logf("median wall: shards=1 %.3fs (stddev %.3fs), shards=2 %.3fs (stddev %.3fs)",
		r1.Seconds, r1.SecondsStddev, r2.Seconds, r2.SecondsStddev)
	if deficit > spread {
		t.Fatalf("shards=2 is SLOWER than shards=1 by %.3fs, more than the %.3fs the repeats spread — multi-core scaling regressed",
			deficit, spread)
	}
}
