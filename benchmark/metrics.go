package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlBurst = "ingest_burst"
	wlPaced = "ingest_paced"
	wlScore = "score_heavy"
	wlGrid  = "grid_eval"
)

// metricDef is one catalogue entry: everything -list prints about a
// metric, and what BENCHMARK.json must say about it (TestCatalogue
// holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Layer is the module the metric belongs to ("e2e" for the
	// end-to-end metrics).
	Layer string
	// Bound is the regression bound of an end-to-end metric, as a share
	// of the parent's median; 0 for per-layer metrics, which have none.
	Bound float64
	// Moves says which end-to-end metric, on which workload, a change
	// to this number should move (the interaction table).
	Moves string
	// On lists the workloads whose traced run measures the metric; on
	// every other workload it reads 0 (the layer is not exercised).
	// Empty means every workload.
	On []string
}

func (m metricDef) measuredOn(workload string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	serveOnly = []string{wlBurst, wlPaced}
	burstOnly = []string{wlBurst}
	pacedOnly = []string{wlPaced}
	gridOnly  = []string{wlGrid}
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from its timed (untraced) run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Layer: "e2e", Bound: 0.25,
		Moves: "fleet generation + framing + reference computation (go build excluded); median of the set-ups made in one run"},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Layer: "e2e", Bound: 0.25,
		Moves: "records completed per second of the timed window: median pass on ingest_burst, score_heavy and grid_eval (input records / grid_s); achieved rate of the fixed schedule on ingest_paced"},
}

// perLayer are the metrics of single layers, printed by the traced run.
var perLayer = []metricDef{
	// serve: the HTTP front end, seen from the client side of the socket.
	{Name: "serve.http_ns_per_record", Unit: "ns", Better: "lower", Layer: "serve", On: burstOnly,
		Moves: "records_per_s on ingest_burst (~70% of per-record cost); burst wall/record minus in-process wire-path wall/record at equal shards"},
	{Name: "serve.post_service_us_p50", Unit: "us", Better: "lower", Layer: "serve", On: burstOnly,
		Moves: "records_per_s on ingest_burst; 512-item POST, send -> response read"},
	{Name: "serve.small_post_service_us_p50", Unit: "us", Better: "lower", Layer: "serve", On: pacedOnly,
		Moves: "serve.alarm_ms_p50 on ingest_paced; 64-item POST, send -> response read"},
	{Name: "serve.post_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", On: pacedOnly,
		Moves: "serve.alarm_ms_p50 on ingest_paced; frame due -> ingest response read"},
	{Name: "serve.post_ms_p95", Unit: "ms", Better: "lower", Layer: "serve", On: pacedOnly,
		Moves: "serve.alarm_ms_p95 on ingest_paced"},
	{Name: "serve.post_ms_p99", Unit: "ms", Better: "lower", Layer: "serve", On: pacedOnly,
		Moves: "tail only; too unsteady to bound"},
	{Name: "serve.read_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", On: pacedOnly,
		Moves: "no end-to-end metric; GET due -> body read, reads beside writes (journal/registry locks, quiesce)"},
	{Name: "serve.read_ms_p95", Unit: "ms", Better: "lower", Layer: "serve", On: pacedOnly,
		Moves: "no end-to-end metric; see serve.read_ms_p50"},
	{Name: "serve.alarm_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "no end-to-end metric: frame sent (burst) or due (paced) -> its alarm line read from serve's stdout; under 1 ms, so mostly thread wake-ups, which a shared host moves by more than any bound (the driver saw 0.27 and 0.40 of the median between runs of the same code)"},
	{Name: "serve.alarm_ms_p95", Unit: "ms", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "tail of serve.alarm_ms_p50's samples"},
	{Name: "serve.alarm_ms_p99", Unit: "ms", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "tail of serve.alarm_ms_p50's samples; swung 4.7 -> 18 ms between identical runs"},
	{Name: "serve.cpu_ns_per_record", Unit: "ns", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "records_per_s on ingest_burst (both CPUs are busy, so CPU per record is what sets it); on ingest_paced it is ~5x that, per-request cost and the wake-ups of a mostly idle runtime; user + system time of the server process, start to exit"},
	{Name: "serve.requests", Unit: "count", Better: "higher", Layer: "serve", On: serveOnly,
		Moves: "fixed by the input; a change means the workload changed"},
	{Name: "serve.bytes_in", Unit: "B", Better: "higher", Layer: "serve", On: serveOnly,
		Moves: "fixed by the input (pdm_ingest_bytes_total)"},
	{Name: "serve.status_4xx", Unit: "count", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "failed operations on ingest_*"},
	{Name: "serve.status_5xx", Unit: "count", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "failed operations on ingest_*"},
	{Name: "serve.rss_mb_peak", Unit: "MB", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "no end-to-end metric; VmHWM of the server process"},
	{Name: "serve.metrics_scrape_ms_p50", Unit: "ms", Better: "lower", Layer: "serve", On: serveOnly,
		Moves: "serve.read_ms_* on ingest_paced (one GET in four is /metrics)"},

	// wire: NVWIRE1 decode and the text formats.
	{Name: "wire.decode_ns_per_record", Unit: "ns", Better: "lower", Layer: "wire",
		Moves: "records_per_s on ingest_burst (~60 of ~680 ns, <= ~9%); <1% of score_heavy, predicted no move"},
	{Name: "wire.decode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "wire",
		Moves: "same measurement as wire.decode_ns_per_record, in bytes"},
	{Name: "wire.decode_allocs_per_record", Unit: "count", Better: "lower", Layer: "wire",
		Moves: "GC share of records_per_s on ingest_burst; contract is ~0"},
	{Name: "wire.frames", Unit: "count", Better: "higher", Layer: "wire",
		Moves: "fixed by the input"},
	{Name: "wire.bytes", Unit: "B", Better: "higher", Layer: "wire",
		Moves: "fixed by the input"},
	{Name: "wire.csv_ns_per_record", Unit: "ns", Better: "lower", Layer: "wire",
		Moves: "no workload posts CSV; baseline for the compatibility path"},
	{Name: "wire.json_ns_per_record", Unit: "ns", Better: "lower", Layer: "wire",
		Moves: "no workload posts JSON; baseline for the compatibility path"},
	{Name: "wire.encode_s", Unit: "s", Better: "lower", Layer: "wire",
		Moves: "setup_s (framing share)"},

	// fleet: admission, routing, queues.
	{Name: "fleet.admit_ns_per_record", Unit: "ns", Better: "lower", Layer: "fleet",
		Moves: "records_per_s on ingest_burst; on score_heavy it is back-pressure, i.e. the detector's time"},
	{Name: "fleet.null_ns_per_record", Unit: "ns", Better: "lower", Layer: "fleet",
		Moves: "records_per_s on ingest_burst; staging + routing + queue with a no-op handler (CPU time)"},
	{Name: "fleet.replay_ns_per_record", Unit: "ns", Better: "lower", Layer: "fleet",
		Moves: "records_per_s on grid_eval via eval.transform_s; Engine.Replay with a no-op handler (CPU time)"},
	{Name: "fleet.drain_ms", Unit: "ms", Better: "lower", Layer: "fleet",
		Moves: "records_per_s on score_heavy (most scoring happens after the last admit); Close after last admit"},
	{Name: "fleet.shard_skew", Unit: "ratio", Better: "lower", Layer: "fleet",
		Moves: "records_per_s on score_heavy: the slowest shard sets the time; max/mean records per shard"},
	{Name: "fleet.queue_depth_max", Unit: "count", Better: "lower", Layer: "fleet",
		Moves: "serve.alarm_ms_* on ingest_paced: queue wait is the latency; sampled pdm_fleet_shard_queue_depth"},
	{Name: "fleet.alarms_dropped", Unit: "count", Better: "lower", Layer: "fleet",
		Moves: "correctness: must stay 0"},

	// transform: per-vehicle TransformStage legs.
	{Name: "transform.correlation_ns_per_record", Unit: "ns", Better: "lower", Layer: "transform",
		Moves: "records_per_s on ingest_burst (largest in-process share); negligible on score_heavy"},
	{Name: "transform.raw_ns_per_record", Unit: "ns", Better: "lower", Layer: "transform",
		Moves: "records_per_s on score_heavy (negligible) and grid_eval via eval.transform_s"},
	{Name: "transform.mean_ns_per_record", Unit: "ns", Better: "lower", Layer: "transform",
		Moves: "records_per_s on grid_eval via eval.transform_s"},
	{Name: "transform.delta_ns_per_record", Unit: "ns", Better: "lower", Layer: "transform",
		Moves: "records_per_s on grid_eval via eval.transform_s"},
	{Name: "transform.emit_ratio_correlation", Unit: "ratio", Better: "higher", Layer: "transform",
		Moves: "explains why ingest_burst is admission-bound: samples emitted per record fed"},

	// core: the detect stage of the workload's own pipeline.
	{Name: "core.fill_fit_ms", Unit: "ms", Better: "lower", Layer: "core",
		Moves: "records_per_s on score_heavy and grid_eval (fits); small on ingest_*; total AddRef time incl. fits"},
	{Name: "core.fits", Unit: "count", Better: "lower", Layer: "core",
		Moves: "fixed by the input (profile fills)"},
	{Name: "core.score_ns_per_sample", Unit: "ns", Better: "lower", Layer: "core",
		Moves: "records_per_s on score_heavy (~all of it); ~48 ns/record amortised on ingest_burst"},
	{Name: "core.filter_drop_share", Unit: "ratio", Better: "lower", Layer: "core",
		Moves: "fixed by the input: share of records the pipeline's filter drops before the transform"},

	// detector: isolated fit and score legs on one vehicle's samples.
	{Name: "detector.closestpair.fit_us", Unit: "us", Better: "lower", Layer: "detector",
		Moves: "core.fill_fit_ms on ingest_*"},
	{Name: "detector.closestpair.score_ns", Unit: "ns", Better: "lower", Layer: "detector",
		Moves: "core.score_ns_per_sample on ingest_*; should barely move records_per_s there"},
	{Name: "detector.closestpair.score_allocs", Unit: "count", Better: "lower", Layer: "detector",
		Moves: "steady-state contract is 0"},
	{Name: "detector.grand.fit_us", Unit: "us", Better: "lower", Layer: "detector",
		Moves: "records_per_s on grid_eval only"},
	{Name: "detector.grand.score_ns", Unit: "ns", Better: "lower", Layer: "detector",
		Moves: "records_per_s on grid_eval only"},
	{Name: "detector.grand.score_allocs", Unit: "count", Better: "lower", Layer: "detector",
		Moves: "steady-state contract is 0"},
	{Name: "detector.tranad.fit_ms", Unit: "ms", Better: "lower", Layer: "detector",
		Moves: "records_per_s on score_heavy and grid_eval"},
	{Name: "detector.tranad.score_us", Unit: "us", Better: "lower", Layer: "detector",
		Moves: "records_per_s on score_heavy (~all of it) and grid_eval"},
	{Name: "detector.tranad.score_allocs", Unit: "count", Better: "lower", Layer: "detector",
		Moves: "steady-state contract is 0"},
	{Name: "detector.xgboost.fit_ms", Unit: "ms", Better: "lower", Layer: "detector",
		Moves: "records_per_s on grid_eval only"},
	{Name: "detector.xgboost.score_us", Unit: "us", Better: "lower", Layer: "detector",
		Moves: "records_per_s on grid_eval only"},
	{Name: "detector.xgboost.score_allocs", Unit: "count", Better: "lower", Layer: "detector",
		Moves: "steady-state contract is 0"},
	{Name: "thresholds.violations_ns", Unit: "ns", Better: "lower", Layer: "thresholds",
		Moves: "core.score_ns_per_sample on every workload"},

	// eval: the grid's own stage split.
	{Name: "eval.grid_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "records_per_s on grid_eval (its inverse): input to complete GridResult"},
	{Name: "eval.transform_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.grid_s; sum of GridResult.TransformTiming"},
	{Name: "eval.score_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.grid_s; sum of GridResult.ScoreTiming"},
	{Name: "eval.closest-pair_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.score_s"},
	{Name: "eval.grand_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.score_s"},
	{Name: "eval.tranad_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.score_s"},
	{Name: "eval.xgboost_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.score_s"},
	{Name: "eval.sweep_s", Unit: "s", Better: "lower", Layer: "eval", On: gridOnly,
		Moves: "eval.grid_s minus transform and score: the threshold sweep"},

	// checkpoint: baseline for ROADMAP item 3d.
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower", Layer: "checkpoint",
		Moves: "no end-to-end metric today; Engine.Checkpoint at the stream's midpoint"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower", Layer: "checkpoint",
		Moves: "no end-to-end metric today; NewEngineFromCheckpoint"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower", Layer: "checkpoint",
		Moves: "no end-to-end metric today"},

	{Name: "obs.overhead_share", Unit: "ratio", Better: "lower", Layer: "obs",
		Moves: "both ingest_* workloads (serve always runs observed); same in-process run with and without Observer"},

	// budget: do the parts sum to the whole?
	{Name: "budget.wall_ns_per_record", Unit: "ns", Better: "lower", Layer: "budget",
		Moves: "in-process wire path (decode + IngestBatch + Close) wall per record, tracing off"},
	{Name: "budget.cpu_ns_per_record", Unit: "ns", Better: "lower", Layer: "budget",
		Moves: "same run, process CPU time per record: what the parts must sum to (the shards run beside the producer, so wall < CPU)"},
	{Name: "budget.sum_ns_per_record", Unit: "ns", Better: "lower", Layer: "budget",
		Moves: "wire.decode + fleet.null + transform + core.fill_fit + core.score, per record"},
	{Name: "budget.residual_share", Unit: "ratio", Better: "lower", Layer: "budget",
		Moves: "(budget.cpu - budget.sum) / budget.cpu: what no layer owns"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "trace",
		Moves: "traced vs untraced in-process wall"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "trace",
		Moves: "spans written to out/trace_<workload>.json"},

	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Layer: "loadgen", On: pacedOnly,
		Moves: "validity of the ingest_paced latencies: how late the generator sent, must stay below serve.post_ms_p50"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower", Layer: "loadgen", On: pacedOnly,
		Moves: "see loadgen.late_ms_p99"},
	{Name: "fleetsim.generate_s", Unit: "s", Better: "lower", Layer: "fleetsim",
		Moves: "setup_s (generation share)"},
}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	wlBurst: "closed loop, real navarchos-serve over HTTP, 3.4M records in 512-item frames: backfill throughput; HTTP read + decode + admission + transform do nearly all the work",
	wlPaced: "open loop, 1250 small frames/s plus 50 GET/s: live operation; per-request cost, flush and queue wait dominate, and reads run beside writes",
	wlScore: "closed loop, in-process raw x TranAD: score-bound, detector/nn/mat do over 95% of the work while wire/transform/HTTP do almost none",
	wlGrid:  "offline eval.RunGrid, 64 cells: the researcher's workload and the paper's Table 1; replay path, all four transforms, fits and the threshold sweep",
}

var workloadOrder = []string{wlBurst, wlPaced, wlScore, wlGrid}

// metricSet holds measured values by catalogue name.
type metricSet map[string]float64

// complete returns the values for defs in catalogue order, reading 0
// for a per-layer metric this workload does not measure. A metric the
// workload should have measured but did not is an error.
func (m metricSet) complete(defs []metricDef, workload string) ([]float64, error) {
	out := make([]float64, len(defs))
	var missing []string
	for i, d := range defs {
		v, ok := m[d.Name]
		if !ok && d.measuredOn(workload) {
			missing = append(missing, d.Name)
		}
		out[i] = v
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s did not measure: %s", workload, strings.Join(missing, ", "))
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	var extra []string
	for name := range m {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("%s measured metrics the catalogue does not list: %s", workload, strings.Join(extra, ", "))
	}
	return out, nil
}

// printList is -list: every metric with unit, layer, bound, where it is
// measured and what it should move.
func printList(w io.Writer) {
	fmt.Fprintf(w, "workloads:\n")
	for _, name := range workloadOrder {
		fmt.Fprintf(w, "  %-13s %s\n", name, workloadWhy[name])
	}
	fmt.Fprintf(w, "\n%-36s %-6s %-10s %-7s %-6s %-26s %s\n", "metric", "unit", "layer", "better", "bound", "measured on", "moves")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			on := "all"
			if len(d.On) > 0 {
				on = strings.Join(d.On, ",")
			}
			fmt.Fprintf(w, "%-36s %-6s %-10s %-7s %-6s %-26s %s\n", d.Name, d.Unit, d.Layer, d.Better, bound, on, d.Moves)
		}
	}
}
