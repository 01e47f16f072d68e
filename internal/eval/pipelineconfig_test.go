package eval

import (
	"math"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// TestPipelineConfigAgainstGrid holds the streaming pipeline a grid
// cell stands for to the cell's offline replay. For every parameter of
// the default sweep, the live pipeline's daily alarms (ConsolidateDaily
// over core.RunVehicle) must equal the replay's (TraceSet.Alarms) on
// every vehicle: same count, times and channels, Float64bits-equal
// scores and thresholds. closest-pair×correlation exercises the
// absolute std floor and the persistence ring across profile resets,
// closest-pair×raw the ring without an absolute floor, and
// grand×correlation the ring under a constant threshold.
func TestPipelineConfigAgainstGrid(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	vehicles := f.AllVehicleIDs()
	spec := GridSpec{
		Records:  f.Records,
		Events:   f.Events,
		Settings: map[string][]string{"all": vehicles},
	}
	byVehicle := timeseries.SplitByVehicle(f.Records)

	for _, tc := range []struct {
		tech Technique
		kind transform.Kind
	}{
		{ClosestPair, transform.Correlation},
		{ClosestPair, transform.Raw},
		{Grand, transform.Correlation},
	} {
		t.Run(tc.tech.String()+"/"+tc.kind.String(), func(t *testing.T) {
			ts, err := CollectTraceSet(spec, tc.tech, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			s := spec
			s.defaults()
			params := s.Factors
			if tc.tech.UsesConstantThreshold() {
				params = s.ConstThresholds
			}
			for _, p := range params {
				grid := ts.Alarms(p)
				live, equal := 0, 0
				for _, v := range vehicles {
					alarms, err := core.RunVehicle(v, byVehicle[v], f.Events, func() core.Config {
						cfg, err := spec.PipelineConfig(tc.tech, tc.kind, p)
						if err != nil {
							t.Fatal(err)
						}
						return cfg
					})
					if err != nil {
						t.Fatal(err)
					}
					alarms = ConsolidateDaily(alarms)
					live += len(alarms)
					if sameAlarms(FilterByVehicles(grid, []string{v}), alarms) {
						equal++
					}
				}
				if live != len(grid) || equal != len(vehicles) {
					t.Errorf("p %v: grid %d daily alarms, live %d; %d of %d vehicles equal",
						p, len(grid), live, equal, len(vehicles))
				}
			}
		})
	}
}

// sameAlarms reports whether two alarm lists have the same times and
// channels and Float64bits-equal scores and thresholds.
func sameAlarms(a, b []detector.Alarm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].Channel != b[i].Channel ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			math.Float64bits(a[i].Threshold) != math.Float64bits(b[i].Threshold) {
			return false
		}
	}
	return true
}
