package fleetsim

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Fleet is a generated synthetic dataset: telemetry records, the events
// the FMS actually sees (partial), and the full ground truth.
type Fleet struct {
	Config   Config
	Vehicles []Vehicle

	// Records holds all PID measurements, sorted chronologically;
	// records with equal times are in vehicle-index order.
	Records []timeseries.Record

	// Events is what the FMS records: services and repairs for recorded
	// vehicles only, plus DTC emissions for every vehicle (DTCs arrive
	// over the telemetry link, not via workshop reports).
	Events []obd.Event

	// HiddenEvents is the complete ground truth including maintenance
	// on unrecorded vehicles. Evaluation never uses it; it exists to
	// document what the partial-information setting hides.
	HiddenEvents []obd.Event
}

// Generate builds a deterministic synthetic fleet from cfg. It simulates
// vehicles on GOMAXPROCS goroutines and returns the same fleet, byte for
// byte, at any GOMAXPROCS.
func Generate(cfg Config) *Fleet {
	cfg.validate()
	f := &Fleet{Config: cfg}
	f.assignVehicles()
	f.scheduleMaintenance()
	f.scheduleDTCs()
	f.generateTelemetry()
	byTime := func(a, b obd.Event) int { return a.Time.Compare(b.Time) }
	slices.SortStableFunc(f.Events, byTime)
	slices.SortStableFunc(f.HiddenEvents, byTime)
	return f
}

// assignVehicles gives every vehicle a model, usage profile, recording
// flag, optional usage drift, and optional failure.
func (f *Fleet) assignVehicles() {
	cfg := f.Config
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 13))
	f.Vehicles = make([]Vehicle, cfg.NumVehicles)
	for i := range f.Vehicles {
		v := &f.Vehicles[i]
		v.ID = vehicleID(i)
		v.Model = models[i%len(models)]
		v.Usage = usageCatalog[(i/len(models)+i)%len(usageCatalog)]
		v.Recorded = i < cfg.RecordedVehicles
		v.DriftDay = -1
		v.FailureDay = -1
		v.Fault = FaultNone
	}
	// Usage drift on a deterministic subset (spread across the fleet).
	for k := 0; k < cfg.UsageDriftVehicles && k < cfg.NumVehicles; k++ {
		idx := (k*7 + 3) % cfg.NumVehicles
		v := &f.Vehicles[idx]
		v.DriftDay = cfg.Days/3 + rng.Intn(cfg.Days/3)
		v.DriftUsage = usageCatalog[(k+2)%len(usageCatalog)]
	}
	// Recorded failures: spread across distinct recorded vehicles.
	for k := 0; k < cfg.RecordedFailures; k++ {
		idx := (k * cfg.RecordedVehicles) / cfg.RecordedFailures
		v := &f.Vehicles[idx]
		v.Fault = cycleFault(k)
		v.DegradeDays = cfg.DegradationDaysMin + rng.Intn(cfg.DegradationDaysMax-cfg.DegradationDaysMin+1)
		lo := v.DegradeDays + cfg.Days/4
		hi := cfg.Days - 8
		if hi <= lo {
			hi = lo + 1
		}
		v.FailureDay = lo + rng.Intn(hi-lo)
	}
	// Hidden failures on unrecorded vehicles.
	for k := 0; k < cfg.HiddenFailures; k++ {
		idx := cfg.RecordedVehicles + (k*max(1, cfg.NumVehicles-cfg.RecordedVehicles))/max(1, cfg.HiddenFailures)
		if idx >= cfg.NumVehicles {
			break
		}
		v := &f.Vehicles[idx]
		v.Fault = cycleFault(k + 2)
		v.DegradeDays = cfg.DegradationDaysMin + rng.Intn(cfg.DegradationDaysMax-cfg.DegradationDaysMin+1)
		lo := v.DegradeDays + cfg.Days/4
		hi := cfg.Days - 8
		if hi <= lo {
			hi = lo + 1
		}
		v.FailureDay = lo + rng.Intn(hi-lo)
	}
}

// scheduleMaintenance lays out services and repairs. Services on
// recorded vehicles are recorded; everything on unrecorded vehicles goes
// to HiddenEvents only. Repairs terminate the vehicle's fault.
func (f *Fleet) scheduleMaintenance() {
	cfg := f.Config
	rng := rand.New(rand.NewSource(cfg.Seed*104729 + 29))
	for i := range f.Vehicles {
		v := &f.Vehicles[i]
		// Periodic services with ±25% jitter. A first service lands
		// somewhere in the first interval so profiles reset early.
		interval := cfg.ServiceIntervalDays
		day := interval/3 + rng.Intn(interval)
		for day < cfg.Days {
			// Workshops catch imminent failures; skip services falling
			// in the last stretch of a degradation window.
			inLateDegradation := v.FailureDay >= 0 && day > v.FailureDay-18 && day <= v.FailureDay
			if !inLateDegradation {
				ev := obd.Event{
					VehicleID: v.ID,
					Time:      f.dayTime(day, 18),
					Type:      obd.EventService,
					Note:      "standard service",
				}
				f.HiddenEvents = append(f.HiddenEvents, ev)
				v.maintDays = append(v.maintDays, day)
				if v.Recorded {
					f.Events = append(f.Events, ev)
				}
			}
			jitter := rng.Intn(interval/2+1) - interval/4
			day += interval + jitter
		}
		if v.FailureDay >= 0 {
			ev := obd.Event{
				VehicleID: v.ID,
				Time:      f.dayTime(v.FailureDay, 19),
				Type:      obd.EventRepair,
				Note:      v.Fault.String(),
			}
			f.HiddenEvents = append(f.HiddenEvents, ev)
			v.maintDays = append(v.maintDays, v.FailureDay)
			if v.Recorded {
				f.Events = append(f.Events, ev)
			}
		}
	}
}

// scheduleDTCs reproduces the Figure 1 reality: DTCs mostly unrelated to
// failures. Among the failing recorded vehicles, the first emits stored
// codes long AFTER its repair without needing one, the second and third
// emit nothing at all, and the fourth emits codes shortly before its
// failure — the single helpful case. A few healthy vehicles emit
// sporadic pending codes.
func (f *Fleet) scheduleDTCs() {
	cfg := f.Config
	rng := rand.New(rand.NewSource(cfg.Seed*15485863 + 41))
	var failing []*Vehicle
	for i := range f.Vehicles {
		if f.Vehicles[i].Recorded && f.Vehicles[i].FailureDay >= 0 {
			failing = append(failing, &f.Vehicles[i])
		}
	}
	emit := func(v *Vehicle, day int, code obd.DTC) {
		if day < 0 || day >= cfg.Days {
			return
		}
		d := code
		ev := obd.Event{VehicleID: v.ID, Time: f.dayTime(day, 12), Type: obd.EventDTC, DTC: &d}
		f.Events = append(f.Events, ev)
		f.HiddenEvents = append(f.HiddenEvents, ev)
	}
	if len(failing) > 0 {
		// Vehicle 1 pattern: stored codes for ~60 days after repair.
		v := failing[0]
		for day := v.FailureDay + 3; day < v.FailureDay+60 && day < cfg.Days; day += 3 + rng.Intn(4) {
			emit(v, day, obd.DTCMisfire)
		}
	}
	if len(failing) > 3 {
		// Vehicle 4 pattern: codes in the 12 days before the failure.
		v := failing[3]
		for day := v.FailureDay - 12; day < v.FailureDay; day += 2 + rng.Intn(3) {
			emit(v, day, obd.DTCThermostat)
		}
	}
	// Sporadic pending codes on a few healthy vehicles.
	codes := obd.KnownDTCs()
	for k := 0; k < 4 && k < cfg.NumVehicles; k++ {
		idx := (k*11 + 5) % cfg.NumVehicles
		v := &f.Vehicles[idx]
		if v.FailureDay >= 0 {
			continue
		}
		n := 1 + rng.Intn(3)
		for j := 0; j < n; j++ {
			emit(v, rng.Intn(cfg.Days), codes[rng.Intn(len(codes))])
		}
	}
}

// generateTelemetry simulates every vehicle and merges the per-vehicle
// runs into f.Records. Each vehicle draws from its own rand.Source and
// only reads the shared weather table and its own Vehicle, so vehicles
// are generated concurrently, GOMAXPROCS at a time; the merge orders by
// (time, vehicle index), which does not depend on who generated what.
func (f *Fleet) generateTelemetry() {
	weather := f.dayWeather()
	runs := make([][]timeseries.Record, len(f.Vehicles))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(runs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				runs[i] = f.vehicleRun(i, weather)
			}
		}()
	}
	wg.Wait()
	f.Records = mergeRuns(runs)
}

// dayWeather draws the day-level weather noise shared by the whole fleet.
func (f *Fleet) dayWeather() []float64 {
	rng := rand.New(rand.NewSource(f.Config.Seed*2654435761 + 99))
	weather := make([]float64, f.Config.Days)
	for d := range weather {
		weather[d] = rng.NormFloat64() * 3
	}
	return weather
}

// vehicleRun simulates vehicle i day by day, trip by trip, at one record
// per minute of driving. Trips never overlap, so the run is
// chronological (TestVehicleRunsChronological).
func (f *Fleet) vehicleRun(i int, weather []float64) []timeseries.Record {
	cfg := f.Config
	v := &f.Vehicles[i]
	startDOY := cfg.Start.YearDay()
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)*7_368_787))
	// A vehicle drives about 0.9 x AvgDriveMinutes a day (idle days,
	// light weekends), so this rarely regrows.
	run := make([]timeseries.Record, 0, int(float64(cfg.Days)*cfg.AvgDriveMinutes))
	for day := 0; day < cfg.Days; day++ {
		// Occasional idle days.
		if rng.Float64() < 0.06 {
			continue
		}
		sev := v.severity(day)
		debt := v.debt(day)
		usage := v.Usage
		if v.DriftDay >= 0 && day >= v.DriftDay {
			usage = v.DriftUsage
		}
		// Total driving minutes today: lognormal-ish around the
		// configured average, lighter on "weekends" (every 6th/7th
		// simulated day).
		factor := 0.55 + rng.Float64()*1.1
		if day%7 >= 5 {
			factor *= 0.6
		}
		minutes := int(cfg.AvgDriveMinutes * factor)
		cursor := 6*60 + rng.Intn(150) // first departure 06:00–08:30
		trip := 0
		// Day-level volatility: driver aggressiveness and
		// tyre/wind conditions for the whole day.
		loadScale := 0.93 + 0.14*rng.Float64()
		gearScale := 0.98 + 0.04*rng.Float64()
		midnight := f.dayTime(day, 0)
		dayOfYear := (startDOY + day - 1) % 365
		for minutes > 8 && cursor < 22*60 {
			ride := sampleRide(usage, rng)
			p := rideCatalog[ride]
			dur := p.minMinutes + rng.Intn(p.maxMinutes-p.minMinutes+1)
			if dur > minutes {
				dur = minutes
			}
			residual := 2.0
			if trip > 0 {
				residual = 25 + rng.Float64()*20 // engine still warm
			}
			amb := ambientTemp(dayOfYear, cursor/60, weather[day])
			eng := newEngineState(v, rng, amb, residual, loadScale, gearScale)
			eng.debt = debt
			base := midnight.Add(time.Duration(cursor) * time.Minute)
			for m := 0; m < dur; m++ {
				vals := eng.step(p, amb, sev)
				run = append(run, timeseries.Record{
					VehicleID: v.ID,
					Time:      base.Add(time.Duration(m) * time.Minute),
					Values:    vals,
				})
			}
			minutes -= dur
			cursor += dur + 20 + rng.Intn(120) // gap before next trip
			trip++
		}
	}
	return run
}

// runHead is one run's cursor in mergeRuns' heap.
type runHead struct {
	key int64 // UnixNano of the run's next record
	run int   // index into runs; breaks key ties
	pos int   // index of the next record in the run
}

func (a runHead) before(b runHead) bool {
	return a.key < b.key || a.key == b.key && a.run < b.run
}

// mergeRuns k-way merges per-vehicle runs into one exact-capacity slice
// ordered by (Time, run index, position in run) — what a stable sort by
// Time gives the runs' concatenation. A run that is not chronological is
// first stably sorted in place, which keeps that equivalence. Times are
// keyed by UnixNano, so they must lie in its range (years 1678–2262).
func mergeRuns(runs [][]timeseries.Record) []timeseries.Record {
	byTime := func(a, b timeseries.Record) int { return a.Time.Compare(b.Time) }
	total := 0
	heap := make([]runHead, 0, len(runs))
	for i, run := range runs {
		if !slices.IsSortedFunc(run, byTime) {
			slices.SortStableFunc(run, byTime)
		}
		total += len(run)
		if len(run) > 0 {
			heap = append(heap, runHead{key: run[0].Time.UnixNano(), run: i})
		}
	}
	// A sorted slice is a valid binary min-heap.
	slices.SortFunc(heap, func(a, b runHead) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	out := make([]timeseries.Record, 0, total)
	for len(heap) > 0 {
		h := &heap[0]
		run := runs[h.run]
		out = append(out, run[h.pos])
		if h.pos++; h.pos < len(run) {
			h.key = run[h.pos].Time.UnixNano()
		} else {
			*h = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		// Sift the changed root down.
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && heap[c+1].before(heap[c]) {
				c++
			}
			if !heap[c].before(heap[i]) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	return out
}

// sampleRide draws a ride type from the usage mixture.
func sampleRide(u UsageProfile, rng *rand.Rand) RideType {
	x := rng.Float64()
	var cum float64
	for r := RideType(0); r < numRideTypes; r++ {
		cum += u.Weights[r]
		if x < cum {
			return r
		}
	}
	return RideUrban
}

// dayTime returns the time at the given hour of simulated day d.
func (f *Fleet) dayTime(d, hour int) time.Time {
	return f.Config.Start.AddDate(0, 0, d).Add(time.Duration(hour) * time.Hour)
}

// EventVehicleIDs returns the IDs of vehicles with at least one recorded
// service or repair — the paper's setting26 subset.
func (f *Fleet) EventVehicleIDs() []string {
	seen := map[string]bool{}
	for _, ev := range f.Events {
		if ev.Type == obd.EventService || ev.Type == obd.EventRepair {
			seen[ev.VehicleID] = true
		}
	}
	out := make([]string, 0, len(seen))
	for i := range f.Vehicles {
		if seen[f.Vehicles[i].ID] {
			out = append(out, f.Vehicles[i].ID)
		}
	}
	return out
}

// AllVehicleIDs returns every vehicle ID in index order.
func (f *Fleet) AllVehicleIDs() []string {
	out := make([]string, len(f.Vehicles))
	for i := range f.Vehicles {
		out[i] = f.Vehicles[i].ID
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
