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

// TestPipelineConfigAgainstGrid pins where the streaming pipeline a grid
// cell stands for and the cell's offline replay part. For every
// parameter of the default sweep it counts the replay's daily alarms
// (TraceSet.Alarms), the live pipeline's daily alarms
// (ConsolidateDaily over core.RunVehicle) and the vehicles on which the
// two agree: same times and channels, Float64bits-equal scores and
// thresholds. Two rules differ: the replay floors correlation's
// calibration std at 0.01 and the live thresholder does not, and the
// live pipeline clears its persistence ring at every profile reset
// while the replay clears it once per vehicle. closest-pair×correlation
// shows both, closest-pair×raw (floor 0) and grand×correlation
// (constant threshold) only the ring. A change that makes the two
// paths agree turns every row to 8 of 8.
func TestPipelineConfigAgainstGrid(t *testing.T) {
	f := fleetsim.Generate(fleetsim.SmallConfig())
	vehicles := f.AllVehicleIDs()
	spec := GridSpec{
		Records:  f.Records,
		Events:   f.Events,
		Settings: map[string][]string{"all": vehicles},
	}
	byVehicle := timeseries.SplitByVehicle(f.Records)

	type row struct{ grid, live, equal int }
	cases := []struct {
		tech Technique
		kind transform.Kind
		want map[float64]row
	}{
		{ClosestPair, transform.Correlation, map[float64]row{
			2: {423, 440, 0}, 3: {162, 178, 0}, 4: {72, 92, 1}, 5: {39, 46, 4},
			7: {14, 21, 4}, 10: {5, 7, 7}, 14: {3, 3, 8}, 20: {2, 2, 8},
			28: {1, 1, 8}, 40: {0, 0, 8}, 60: {0, 0, 8},
		}},
		{ClosestPair, transform.Raw, map[float64]row{
			2: {449, 447, 5}, 3: {353, 352, 7}, 4: {307, 306, 7}, 5: {273, 272, 7},
			7: {242, 241, 7}, 10: {219, 219, 8}, 14: {190, 190, 8}, 20: {170, 170, 8},
			28: {158, 158, 8}, 40: {143, 143, 8}, 60: {121, 121, 8},
		}},
		{Grand, transform.Correlation, map[float64]row{
			0.6: {584, 573, 3}, 0.8: {145, 143, 7}, 0.9: {38, 38, 8},
			0.95: {5, 5, 8}, 0.99: {0, 0, 8}, 0.999: {0, 0, 8},
		}},
	}
	for _, tc := range cases {
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
				var got row
				got.grid = len(grid)
				for _, v := range vehicles {
					live, err := core.RunVehicle(v, byVehicle[v], f.Events, func() core.Config {
						cfg, err := spec.PipelineConfig(tc.tech, tc.kind, p)
						if err != nil {
							t.Fatal(err)
						}
						return cfg
					})
					if err != nil {
						t.Fatal(err)
					}
					live = ConsolidateDaily(live)
					got.live += len(live)
					if sameAlarms(FilterByVehicles(grid, []string{v}), live) {
						got.equal++
					}
				}
				if want, ok := tc.want[p]; !ok || got != want {
					t.Errorf("p %v: got %+v, want %+v", p, got, want)
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
