package experiments

import (
	"io"
	"math"
	"sort"
	"time"

	"github.com/navarchos/pdm/internal/cluster"
	"github.com/navarchos/pdm/internal/neighbors"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Figure2Result reproduces the Section 2 exploration: average-linkage
// agglomerative clustering of daily (mean, std) aggregates into 9
// clusters, plus the top-1% LOF outliers and their relationship to
// upcoming failures.
//
// The paper's finding, which must hold here too: clusters reflect
// vehicle model and usage, not health, and essentially no raw-space
// outlier falls within 30 days of a failure (category a ≈ 0%).
type Figure2Result struct {
	NumDays  int
	K        int
	Clusters []ClusterSummary

	// Outlier-to-failure categories (paper: a=0%, b=11%, c=89%).
	OutliersTotal          int
	OutliersNearFailure    int // (a) within 30 days before a failure
	OutliersNoFailureAfter int // (b) no failure after the outlier at all
	OutliersFarFromFailure int // (c) ≥31 days before the next failure
}

// ClusterSummary describes one cluster for interpretation.
type ClusterSummary struct {
	ID              int
	Size            int
	DominantVehicle string  // vehicle contributing the most days
	DominantShare   float64 // its share of the cluster
	NumVehicles     int     // distinct vehicles in the cluster
	MeanSpeed       float64 // interpreting usage (short vs long rides)
	MeanRPM         float64
}

// Figure2 runs the exploration. maxDays caps the number of vehicle-days
// clustered (the O(n²) distance matrix); 0 means 4000.
func Figure2(opts *Options, maxDays int) (*Figure2Result, error) {
	if maxDays <= 0 {
		maxDays = 4000
	}
	f := opts.fleet()
	clean := timeseries.FilterRecords(f.Records, timeseries.CleanFilter)
	aggs := timeseries.AggregateDaily(clean, 20)
	if len(aggs) > maxDays {
		// Evenly subsample days to bound the distance matrix.
		stride := float64(len(aggs)) / float64(maxDays)
		var kept []timeseries.DailyAggregate
		for i := 0.0; int(i) < len(aggs); i += stride {
			kept = append(kept, aggs[int(i)])
		}
		aggs = kept
	}
	points := make([][]float64, len(aggs))
	for i := range aggs {
		points[i] = aggs[i].FeatureVector()
	}
	// Standardise features so temperature and rpm scales don't dominate.
	points = standardizeRows(points)

	const k = 9
	dend, err := cluster.Agglomerative(points)
	if err != nil {
		return nil, err
	}
	labels, err := dend.Cut(k)
	if err != nil {
		return nil, err
	}

	res := &Figure2Result{NumDays: len(aggs), K: k}
	for c := 0; c < k; c++ {
		var sum ClusterSummary
		sum.ID = c
		byVehicle := map[string]int{}
		var speedSum, rpmSum float64
		for i, l := range labels {
			if l != c {
				continue
			}
			sum.Size++
			byVehicle[aggs[i].VehicleID]++
			speedSum += aggs[i].Means[obd.Speed]
			rpmSum += aggs[i].Means[obd.EngineRPM]
		}
		sum.NumVehicles = len(byVehicle)
		for vid, n := range byVehicle {
			if float64(n) > sum.DominantShare*float64(sum.Size) {
				sum.DominantVehicle = vid
				sum.DominantShare = float64(n) / float64(sum.Size)
			}
		}
		if sum.Size > 0 {
			sum.MeanSpeed = speedSum / float64(sum.Size)
			sum.MeanRPM = rpmSum / float64(sum.Size)
		}
		res.Clusters = append(res.Clusters, sum)
	}
	sort.Slice(res.Clusters, func(a, b int) bool { return res.Clusters[a].Size > res.Clusters[b].Size })

	// Top-1% LOF outliers and their failure categories.
	idx, err := neighbors.NewBrute(points)
	if err != nil {
		return nil, err
	}
	lof := neighbors.FitLOF(idx, 20)
	scores := lof.Scores()
	n := len(scores)
	topN := n / 100
	if topN < 1 {
		topN = 1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })

	failuresByVehicle := map[string][]time.Time{}
	for _, ev := range f.Events {
		if ev.Type == obd.EventRepair {
			failuresByVehicle[ev.VehicleID] = append(failuresByVehicle[ev.VehicleID], ev.Time)
		}
	}
	const window = 30 * 24 * time.Hour
	for _, i := range order[:topN] {
		res.OutliersTotal++
		agg := aggs[i]
		// Next failure at or after the outlier's day.
		var next *time.Time
		for _, ft := range failuresByVehicle[agg.VehicleID] {
			if !ft.Before(agg.Date) {
				t := ft
				if next == nil || t.Before(*next) {
					next = &t
				}
			}
		}
		switch {
		case next == nil:
			res.OutliersNoFailureAfter++
		case next.Sub(agg.Date) <= window:
			res.OutliersNearFailure++
		default:
			res.OutliersFarFromFailure++
		}
	}
	return res, nil
}

// standardizeRows z-scores each column across rows.
func standardizeRows(points [][]float64) [][]float64 {
	if len(points) == 0 {
		return points
	}
	dim := len(points[0])
	means := make([]float64, dim)
	stds := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(len(points))
	}
	for _, p := range points {
		for j, v := range p {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] /= float64(len(points))
		if stds[j] > 0 {
			stds[j] = math.Sqrt(stds[j])
		}
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		row := make([]float64, dim)
		for j, v := range p {
			row[j] = v - means[j]
			if stds[j] > 0 {
				row[j] /= stds[j]
			}
		}
		out[i] = row
	}
	return out
}

// Render writes the exploration results in the paper's terms.
func (r *Figure2Result) Render(w io.Writer) {
	fprintf(w, "Figure 2 — Agglomerative clustering (k=%d) of %d vehicle-days + top-1%% LOF outliers\n", r.K, r.NumDays)
	fprintf(w, "================================================================================\n")
	for _, c := range r.Clusters {
		interp := "mixed usage"
		switch {
		case c.DominantShare > 0.8:
			interp = "data of a single vehicle (" + c.DominantVehicle + ")"
		case c.MeanSpeed > 85:
			interp = "high speed/rpm long rides"
		case c.MeanSpeed > 65:
			interp = "long/regional rides"
		case c.MeanSpeed < 35:
			interp = "short/small rides"
		default:
			interp = "regular rides"
		}
		fprintf(w, "  cluster %d: %4d days, %2d vehicles, mean speed %5.1f km/h, mean rpm %6.0f — %s\n",
			c.ID, c.Size, c.NumVehicles, c.MeanSpeed, c.MeanRPM, interp)
	}
	tot := float64(r.OutliersTotal)
	if tot == 0 {
		tot = 1
	}
	fprintf(w, "\nTop-1%% LOF outliers vs failures (paper: a=0%%, b=11%%, c=89%%):\n")
	fprintf(w, "  (a) within 30 days before a failure: %d (%.0f%%)\n", r.OutliersNearFailure, 100*float64(r.OutliersNearFailure)/tot)
	fprintf(w, "  (b) no failure after the outlier:    %d (%.0f%%)\n", r.OutliersNoFailureAfter, 100*float64(r.OutliersNoFailureAfter)/tot)
	fprintf(w, "  (c) ≥31 days before the next failure: %d (%.0f%%)\n", r.OutliersFarFromFailure, 100*float64(r.OutliersFarFromFailure)/tot)
	fprintf(w, "=> raw-space distance methods reveal usage and vehicle type, not upcoming failures\n")
}
