// Command obscheck verifies that every metric family the stack
// registers is documented in DESIGN.md's observability inventory
// (§10). It instantiates the real registration paths — an Observer
// with a score distribution plus an instrumented fleet engine — reads
// the family list back from the registry, and requires each name to
// appear in the doc as `name`. Run by `make vet-obs` (part of
// `make ci`), so adding a metric without documenting it fails CI.
//
// Usage: obscheck [path/to/DESIGN.md]
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleet"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// nopHandler satisfies fleet.Handler; obscheck only needs the engine's
// metric registration, never its processing.
type nopHandler struct{}

func (nopHandler) HandleRecord(timeseries.Record) ([]detector.Alarm, error) { return nil, nil }
func (nopHandler) HandleEvent(obd.Event)                                    {}
func (nopHandler) ScoredSamples() uint64                                    { return 0 }

func main() {
	designPath := "DESIGN.md"
	if len(os.Args) > 1 {
		designPath = os.Args[1]
	}
	doc, err := os.ReadFile(designPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
		os.Exit(1)
	}

	// Exercise the real registration paths so the family list is the
	// code's, not a hand-maintained mirror of the doc.
	reg := obs.NewRegistry()
	o := obs.NewObserver(reg, obs.ObserverConfig{}) // registers pdm_pipeline_* and pdm_e2e_*
	o.ScoreDist("closest-pair")
	obs.NewIngestMetrics(reg)
	obs.NewCtrlMetrics(reg)
	// The event log registers its per-kind counter family lazily, so
	// record one event of each kind the serving layer emits.
	events := obs.NewEventLog(8, reg)
	for _, kind := range []string{
		obs.EventDrainStart, obs.EventDrainFinish, obs.EventDrainAbort,
		obs.EventCordon, obs.EventUncordon, obs.EventAdopt,
		obs.EventPeerConflict,
	} {
		events.Record(obs.ControlEvent{Kind: kind})
	}
	eng, err := fleet.NewEngine(fleet.Config{
		NewHandler: func(string) (fleet.Handler, error) { return nopHandler{}, nil },
		Shards:     1,
		Observer:   o,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
		os.Exit(1)
	}
	eng.Close() //nolint:errcheck // nothing was ingested

	var missing []string
	fams := reg.Families()
	for _, f := range fams {
		if !strings.Contains(string(doc), "`"+f.Name+"`") {
			missing = append(missing, f.Name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "obscheck: %d registered metric famil(ies) undocumented in %s:\n", len(missing), designPath)
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		os.Exit(1)
	}
	fmt.Printf("obscheck: all %d registered metric families documented in %s\n", len(fams), designPath)
}
