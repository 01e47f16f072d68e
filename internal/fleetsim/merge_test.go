package fleetsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/timeseries"
)

// buildRuns turns per-run minute offsets into runs of records, each
// tagged (run index in VehicleID, serial number in Values[0]) so that
// two records with equal times are still told apart.
func buildRuns(minutes [][]int) [][]timeseries.Record {
	start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := make([][]timeseries.Record, len(minutes))
	serial := 0.0
	for i, ms := range minutes {
		for _, m := range ms {
			r := timeseries.Record{VehicleID: vehicleID(i), Time: start.Add(time.Duration(m) * time.Minute)}
			r.Values[0] = serial
			serial++
			runs[i] = append(runs[i], r)
		}
	}
	return runs
}

// TestMergeRunsMatchesStableSort holds mergeRuns to the order the
// generator used to produce: the runs concatenated in index order, then
// sort.SliceStable by time.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sorted := func(n, span int) []int {
		ms := make([]int, n)
		for i := range ms {
			ms[i] = rng.Intn(span)
		}
		sort.Ints(ms)
		return ms
	}
	var singles [][]int
	for i := 0; i < 1000; i++ {
		singles = append(singles, []int{rng.Intn(50)})
	}
	var crowded [][]int // 40 runs x 200 records over 30 distinct minutes
	for i := 0; i < 40; i++ {
		crowded = append(crowded, sorted(200, 30))
	}
	cases := map[string][][]int{
		"no runs":                  nil,
		"one run":                  {sorted(100, 1000)},
		"all empty":                {nil, nil, nil},
		"empty among full":         {nil, sorted(20, 40), nil, nil, sorted(20, 40), nil},
		"equal times across runs":  {{5, 5, 5}, {5, 5}, {5}, {4, 5, 6}},
		"equal times inside a run": {{1, 1, 1, 2, 2, 3}, {0, 1, 1, 3, 3}},
		"crowded":                  crowded,
		"1000 runs of length 1":    singles,
		"one unsorted run":         {sorted(50, 60), {9, 3, 3, 58, 0, 3, 41, 9}, sorted(50, 60)},
	}
	for name, minutes := range cases {
		t.Run(name, func(t *testing.T) {
			runs := buildRuns(minutes)
			want := slices.Concat(runs...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
			got := mergeRuns(runs)
			if !slices.Equal(got, want) {
				t.Fatalf("merge of %d runs (%d records) differs from the stable sort", len(runs), len(want))
			}
			if cap(got) != len(got) {
				t.Errorf("cap = %d, len = %d: want an exact-capacity slice", cap(got), len(got))
			}
		})
	}
}

// TestVehicleRunsChronological pins what lets mergeRuns skip its sort:
// trips never overlap, so every vehicle's run comes out in time order.
func TestVehicleRunsChronological(t *testing.T) {
	for _, cfg := range []Config{SmallConfig(), BenchConfig()} {
		f := Generate(cfg)
		weather := f.dayWeather()
		for i := range f.Vehicles {
			run := f.vehicleRun(i, weather)
			if !slices.IsSortedFunc(run, func(a, b timeseries.Record) int { return a.Time.Compare(b.Time) }) {
				t.Errorf("%d vehicles x %d days: run %d is not chronological", cfg.NumVehicles, cfg.Days, i)
			}
		}
	}
}
