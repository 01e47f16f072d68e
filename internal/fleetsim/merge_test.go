package fleetsim

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"github.com/navarchos/pdm/internal/timeseries"
)

// buildDay turns per-vehicle offsets from midnight into buffers of
// records, each tagged (vehicle index in VehicleID, serial number in
// Values[0]) so that two records with equal times are still told apart.
func buildDay(midnight time.Time, offsets [][]time.Duration) [][]timeseries.Record {
	bufs := make([][]timeseries.Record, len(offsets))
	serial := 0.0
	for i, ds := range offsets {
		for _, d := range ds {
			r := timeseries.Record{VehicleID: vehicleID(i), Time: midnight.Add(d)}
			r.Values[0] = serial
			serial++
			bufs[i] = append(bufs[i], r)
		}
	}
	return bufs
}

// minutes converts minute offsets to durations.
func minutes(ms ...int) []time.Duration {
	ds := make([]time.Duration, len(ms))
	for i, m := range ms {
		ds[i] = time.Duration(m) * time.Minute
	}
	return ds
}

// TestPlaceDayMatchesStableSort holds placeDay to the order the
// generator has always produced: the vehicles' buffers concatenated in
// index order, then sort.SliceStable by time, appended after the days
// already placed.
func TestPlaceDayMatchesStableSort(t *testing.T) {
	midnight := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	sorted := func(n, span int, unit time.Duration) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(rng.Intn(span)) * unit
		}
		slices.Sort(ds)
		return ds
	}
	var singles [][]time.Duration
	for i := 0; i < 1000; i++ {
		singles = append(singles, minutes(rng.Intn(50)))
	}
	var crowded [][]time.Duration // 40 vehicles x 200 records over 30 distinct minutes
	for i := 0; i < 40; i++ {
		crowded = append(crowded, sorted(200, 30, time.Minute))
	}
	var offGrid [][]time.Duration // 20 vehicles x 50 records over 30 minutes, to the second
	for i := 0; i < 20; i++ {
		offGrid = append(offGrid, sorted(50, 30*60, time.Second))
	}
	var sameMinute [][]time.Duration
	for i := 0; i < 400; i++ {
		sameMinute = append(sameMinute, minutes(600, 600, 601))
	}
	cases := map[string][][]time.Duration{
		"no vehicles":                  nil,
		"one vehicle":                  {sorted(100, 1000, time.Minute)},
		"one vehicle, one record":      {minutes(420)},
		"all empty":                    {nil, nil, nil},
		"empty among full":             {nil, sorted(20, 40, time.Minute), nil, nil, sorted(20, 40, time.Minute), nil},
		"equal times across vehicles":  {minutes(5, 5, 5), minutes(5, 5), minutes(5), minutes(4, 5, 6)},
		"equal times inside a vehicle": {minutes(1, 1, 1, 2, 2, 3), minutes(0, 1, 1, 3, 3)},
		"crowded":                      crowded,
		"1000 vehicles of one record":  singles,
		"one unsorted vehicle":         {sorted(50, 60, time.Minute), minutes(9, 3, 3, 58, 0, 3, 41, 9), sorted(50, 60, time.Minute)},
		"off the minute grid":          offGrid,
		"needs the sort fallback":      {{10*time.Minute + 50*time.Second}, {10*time.Minute + 10*time.Second}},
		"past midnight":                {minutes(1430, 1439, 1440, 1479), minutes(1440, 1441, 1500)},
		"outside the buckets":          {minutes(-5, -1, 0, 2879, 2880, 5000), minutes(-3, 0, 3000)},
		"same minute, 400 vehicles":    sameMinute,
	}
	// One earlier day already placed, which placeDay must leave alone.
	prev := buildDay(midnight.Add(-48*time.Hour), [][]time.Duration{minutes(360, 361), minutes(360)})
	counts := make([]int, dayBuckets)
	for name, offsets := range cases {
		t.Run(name, func(t *testing.T) {
			bufs := buildDay(midnight, offsets)
			want := slices.Concat(bufs...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
			for _, out := range [][]timeseries.Record{nil, placeDay(nil, prev, midnight.Add(-48*time.Hour), counts)} {
				head := slices.Clone(out)
				got := placeDay(out, bufs, midnight, counts)
				if !slices.Equal(got[:len(head)], head) {
					t.Fatalf("after %d earlier records: placeDay changed them", len(head))
				}
				if !slices.Equal(got[len(head):], want) {
					t.Fatalf("after %d earlier records: placement of %d vehicles (%d records) differs from the stable sort", len(head), len(bufs), len(want))
				}
			}
		})
	}
	t.Run("overlapping days panic", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("a day starting before the last placed record did not panic")
			}
		}()
		out := placeDay(nil, buildDay(midnight, [][]time.Duration{minutes(600)}), midnight, counts)
		placeDay(out, buildDay(midnight, [][]time.Duration{minutes(600)}), midnight, counts)
	})
}

// TestGenerateAllocBound holds Generate to one copy of its records:
// everything it allocates for BenchConfig's fleet stays within 1.5x the
// bytes of the records it returns (a per-vehicle copy merged into a
// second slice took 2.17x).
func TestGenerateAllocBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := Generate(BenchConfig())
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	records := float64(len(f.Records)) * float64(unsafe.Sizeof(timeseries.Record{}))
	if ratio := float64(alloc) / records; ratio > 1.5 {
		t.Errorf("Generate allocated %d bytes for %d records of %d bytes: %.2fx, want <= 1.5x",
			alloc, len(f.Records), unsafe.Sizeof(timeseries.Record{}), ratio)
	}
}
