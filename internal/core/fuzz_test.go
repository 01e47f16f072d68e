package core

import (
	"testing"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// FuzzPipelineRestore holds the pipeline codec that vehicle-handoff
// frames carry to never-panic: Restore returns an error, or the restored
// pipeline then takes a fixed record and event stream. The seeds are
// snapshots at TestPipelineSnapshotResume's correlation split points,
// one with resets due, and a profile of zero-width Ref rows.
func FuzzPipelineRestore(f *testing.F) {
	records, events := stageStream(900)
	for _, split := range []int{7, 35, 150, 500, 701} {
		var first []obd.Event
		for _, ev := range events {
			if !ev.Time.After(records[split].Time) {
				first = append(first, ev)
			}
		}
		f.Add(snapshotAfter(f, records[:split+1], first))
	}
	f.Add(snapshotAfter(f, records[:151], events))
	p := buildPipeline(f, transform.Correlation, nil)
	ts, err := p.ts.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	th, err := thresholds.NewSelfTuning(3).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pipelinePayload(ts, detectPayload(false, make([][]float64, 5), nil, th)))
	f.Fuzz(func(t *testing.T, snap []byte) {
		p := buildPipeline(t, transform.Correlation, nil)
		if p.Restore(snap) != nil {
			return
		}
		feed(t, p, records, events)
	})
}

// snapshotAfter is a correlation pipeline's snapshot after records and
// events.
func snapshotAfter(tb testing.TB, records []timeseries.Record, events []obd.Event) []byte {
	p := buildPipeline(tb, transform.Correlation, nil)
	feed(tb, p, records, events)
	snap, err := p.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}
