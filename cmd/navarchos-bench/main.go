// Command navarchos-bench regenerates every table and figure of the
// paper's evaluation on the synthetic fleet.
//
// Usage:
//
//	navarchos-bench                      # everything, bench scale
//	navarchos-bench -experiment fig4     # one exhibit
//	navarchos-bench -scale small         # quick pass
//
// Experiments: fig1 fig2 fig4 fig5 fig6 fig7 table1 table2 table3 fig8
// baselines all.
//
// Performance is not measured here: `bash benchmark/run.sh` (see
// benchmark/README.md) is the repo's one benchmark.
//
// -cpuprofile and -memprofile write pprof profiles covering the whole
// run (the memory profile is taken at exit, after a final GC).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/navarchos/pdm/internal/experiments"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obs"
)

// stopProfiles flushes active profiles; fatal exits through it so a
// failing experiment still leaves usable -cpuprofile/-memprofile files.
var stopProfiles = func() {}

func fatal(v ...any) {
	stopProfiles()
	log.Fatal(v...)
}

func fatalf(format string, v ...any) {
	stopProfiles()
	log.Fatalf(format, v...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("navarchos-bench: ")
	scale := flag.String("scale", "bench", "dataset scale: small | bench | paper")
	seed := flag.Int64("seed", 1, "generator seed")
	experiment := flag.String("experiment", "all", "which exhibit to regenerate")
	vehicle := flag.String("vehicle", "", "vehicle for fig8 (default: first failing)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/* on this address while experiments run")
	flag.Parse()

	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles = stop
	defer stop()

	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, obs.DebugConfig{Registry: obs.NewRegistry()})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug endpoint on http://%s (/debug/pprof/ /debug/vars /metrics)\n", srv.Addr())
	}

	cfg, err := fleetsim.ConfigForScale(*scale, *seed)
	if err != nil {
		fatal(err)
	}
	opts := &experiments.Options{FleetConfig: cfg}
	out := os.Stdout

	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		want[strings.TrimSpace(e)] = true
	}
	has := func(name string) bool { return want["all"] || want[name] }
	ran := false

	if has("fig1") {
		ran = true
		r, err := experiments.Figure1(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("fig2") {
		ran = true
		r, err := experiments.Figure2(opts, 0)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("fig4") || has("fig5") {
		ran = true
		r, err := experiments.Figures45(opts)
		if err != nil {
			fatal(err)
		}
		if has("fig4") {
			r.Render(out, experiments.Setting40)
			fmt.Fprintln(out)
		}
		if has("fig5") {
			r.Render(out, experiments.Setting26)
			fmt.Fprintln(out)
		}
	}
	if has("fig6") {
		ran = true
		r, err := experiments.Figure6(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("fig7") {
		ran = true
		r, err := experiments.Figure7(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("table1") {
		ran = true
		r, err := experiments.Table1(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("table2") {
		ran = true
		r, err := experiments.Table2(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("table3") {
		ran = true
		r, err := experiments.Table3(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("baselines") {
		ran = true
		r, err := experiments.Baselines(opts)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if has("fig8") {
		ran = true
		r, err := experiments.Figure8(opts, *vehicle)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Fprintln(out)
	}
	if !ran {
		fatalf("unknown experiment %q (want fig1 fig2 fig4 fig5 fig6 fig7 table1 table2 table3 fig8 baselines or all)", *experiment)
	}
}
