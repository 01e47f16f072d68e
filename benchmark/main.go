// Command benchmark is the repository's benchmark: one invocation runs
// one workload at one seed, prints every metric by name with its unit,
// verifies the outputs, and ends with one JSON line for the driver.
//
//	go run ./benchmark -workload ingest_burst -seed 1            timed run, end-to-end metrics
//	go run ./benchmark -workload ingest_burst -seed 1 -trace 1   traced run, per-layer metrics
//	go run ./benchmark -list                                     the metric catalogue
//
// BENCHMARK.json names benchmark/run.sh, which builds this package with
// every Go cache inside the checkout and passes its arguments through.
// See README.md for why each workload exists and how the layers'
// numbers are expected to move the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/navarchos/pdm/internal/experiments"
)

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	scale    string
	trace    bool
	// nproc is the number of ingest connections (burst), engine shards
	// and grid workers: all load comes from this one process, so more
	// than the CPUs would only measure the scheduler.
	nproc        int
	root         string // module root
	serverBin    string
	buildDir     string // the server binary; go leaves it alone while it is up to date
	workDir      string // this run's journals, inside buildDir
	outDir       string // trace_<workload>.json
	writeFixture bool
	log          io.Writer
}

// outcome is what a workload hands back.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	verifyErr error // first verification failure
	notes     []string
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}} }

func (o *outcome) verify(err error) {
	if err != nil && o.verifyErr == nil {
		o.verifyErr = err
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// repeatSetup runs a workload's set-up several times and returns the
// median duration: at least three set-ups and at least a second of
// them (grid_eval's takes 80 ms, and one such reading is mostly noise),
// at most fifteen, and no further once 8 s have gone into them
// (ingest_burst's single set-up takes longer than that, and a duration
// that long is steady on its own). The traced run sets up once.
func (c *runCfg) repeatSetup(setup func() error) (float64, error) {
	var took []float64
	spent := 0.0
	for {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		took = append(took, d)
		spent += d
		if c.trace || spent >= 8 || len(took) >= 15 || (len(took) >= 3 && spent >= 1) {
			break
		}
	}
	fmt.Fprintf(c.log, "set-up x%d: median %.3fs\n", len(took), median(took))
	return median(took), nil
}

func (c *runCfg) writeTrace(tr *tracer) error {
	path := filepath.Join(c.outDir, "trace_"+c.workload+".json")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(c.log, "%d spans written to %s\n", tr.len(), path)
	for name, lt := range tr.byName() {
		fmt.Fprintf(c.log, "  span %-18s n=%-7d total %-14v self %v\n", name, lt.Count, lt.Total, lt.Self)
	}
	return nil
}

var workloads = map[string]func(context.Context, *runCfg) (*outcome, error){
	wlBurst: runBurst,
	wlPaced: runPaced,
	wlScore: runScore,
	wlGrid:  runGrid,
}

// needsServer reports whether a workload drives navarchos-serve.
func needsServer(workload string) bool { return workload == wlBurst || workload == wlPaced }

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and prints its report to w. The returned
// outcome is nil only when the run itself failed.
func run(ctx context.Context, cfg *runCfg, w io.Writer) (*outcome, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadOrder)
	}
	env := experiments.CaptureEnv()
	fmt.Fprintf(w, "# workload=%s seed=%d scale=%s seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.scale, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d go=%s git=%q simd=%s connections/shards=%d\n",
		env.NumCPU, env.GoMaxProcs, env.GoVersion, env.GitRev, env.SIMD, cfg.nproc)
	fmt.Fprintf(w, "# why: %s\n", workloadWhy[cfg.workload])
	cfg.log = w

	if needsServer(cfg.workload) && cfg.serverBin == "" {
		start := time.Now()
		bin, err := buildServer(ctx, cfg.root, cfg.buildDir)
		if err != nil {
			return nil, err
		}
		cfg.serverBin = bin
		fmt.Fprintf(w, "built navarchos-serve in %.1fs (not part of setup_s)\n", time.Since(start).Seconds())
	}
	out, err := fn(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	vals, err := out.metrics.complete(defs, cfg.workload)
	if err != nil {
		return nil, err
	}
	line := resultLine{Correct: out.verifyErr == nil, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for i, d := range defs {
		if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, vals[i])
		}
		mark := ""
		if !d.measuredOn(cfg.workload) {
			mark = "   (layer not exercised by this workload)"
		}
		fmt.Fprintf(w, "%-36s %16.6g %s%s\n", d.Name, vals[i], d.Unit, mark)
		line.Metrics[d.Name] = metricValue{vals[i], d.Unit}
	}
	share := 0.0
	if out.attempted > 0 {
		share = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d failed_share=%g\n", out.attempted, out.failed, share)
	if out.verifyErr != nil {
		fmt.Fprintf(w, "VERIFICATION FAILED: %v\n", out.verifyErr)
	} else {
		fmt.Fprintf(w, "verification passed\n")
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest_burst, ingest_paced, score_heavy, grid_eval")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "how long the run measures (passes repeat, or the paced schedule runs, for about this long)")
	trace := flag.Int("trace", 0, "1 = the separate traced run: per-layer metrics and out/trace_<workload>.json")
	scale := flag.String("scale", scaleFull, "full, or smoke (~1/20 size, for TestSmoke)")
	list := flag.Bool("list", false, "print every metric with unit, layer, bound and what it should move")
	buildDir := flag.String("build-dir", "", "where the server binary and journals go (default <repo>/.bench_build)")
	writeFixture := flag.Bool("write-fixture", false, "grid_eval at seed 1: rewrite testdata/grid_small_seed1.json")
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}
	if *scale != scaleFull && *scale != scaleSmoke {
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	root, err := moduleRoot(".")
	if err != nil {
		fatal(err)
	}
	if *buildDir == "" {
		*buildDir = filepath.Join(root, ".bench_build")
	}
	workDir, err := filepath.Abs(filepath.Join(*buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}

	// One context ends everything: a signal, or 170 s (the driver allows
	// a run 180). The server is started under it, so it dies with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	cfg := &runCfg{
		workload: *workload, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0,
		nproc: runtime.NumCPU(), root: root, buildDir: *buildDir, workDir: workDir,
		outDir: filepath.Join(root, "benchmark", "out"), writeFixture: *writeFixture,
	}
	out, err := run(ctx, cfg, os.Stdout)
	cancel()
	stop()
	os.RemoveAll(workDir) //nolint:errcheck // scratch; the next run makes its own
	if err != nil {
		fatal(err)
	}
	if out.verifyErr != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}
