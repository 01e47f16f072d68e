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
	"io"
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
	ran := false
	for _, e := range exhibits(*vehicle) {
		if !want["all"] && !want[e.name] {
			continue
		}
		ran = true
		render, err := e.run(opts)
		if err != nil {
			fatal(err)
		}
		render(out)
		fmt.Fprintln(out)
	}
	if !ran {
		fatalf("unknown experiment %q (want fig1 fig2 fig4 fig5 fig6 fig7 table1 table2 table3 fig8 baselines or all)", *experiment)
	}
}

// exhibit is one paper exhibit: its -experiment name and how it runs,
// returning how it renders.
type exhibit struct {
	name string
	run  func(*experiments.Options) (func(io.Writer), error)
}

// exhibits lists the paper's exhibits in output order; vehicle picks
// Figure 8's vehicle. fig4 and fig5 render one shared Figures45 run.
func exhibits(vehicle string) []exhibit {
	var f45 *experiments.Figures45Result
	figures45 := func(setting string) func(*experiments.Options) (func(io.Writer), error) {
		return func(opts *experiments.Options) (func(io.Writer), error) {
			if f45 == nil {
				r, err := experiments.Figures45(opts)
				if err != nil {
					return nil, err
				}
				f45 = r
			}
			return func(w io.Writer) { f45.Render(w, setting) }, nil
		}
	}
	return []exhibit{
		{"fig1", rendered(experiments.Figure1)},
		{"fig2", rendered(func(opts *experiments.Options) (*experiments.Figure2Result, error) {
			return experiments.Figure2(opts, 0)
		})},
		{"fig4", figures45(experiments.Setting40)},
		{"fig5", figures45(experiments.Setting26)},
		{"fig6", rendered(experiments.Figure6)},
		{"fig7", rendered(experiments.Figure7)},
		{"table1", rendered(experiments.Table1)},
		{"table2", rendered(experiments.Table2)},
		{"table3", rendered(experiments.Table3)},
		{"baselines", rendered(experiments.Baselines)},
		{"fig8", rendered(func(opts *experiments.Options) (*experiments.Figure8Result, error) {
			return experiments.Figure8(opts, vehicle)
		})},
	}
}

// rendered adapts an experiment whose result renders itself.
func rendered[R interface{ Render(io.Writer) }](run func(*experiments.Options) (R, error)) func(*experiments.Options) (func(io.Writer), error) {
	return func(opts *experiments.Options) (func(io.Writer), error) {
		r, err := run(opts)
		if err != nil {
			return nil, err
		}
		return r.Render, nil
	}
}
