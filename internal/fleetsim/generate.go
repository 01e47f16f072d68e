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
	// records with equal times are in vehicle-index order (nil in a Plan).
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

// Plan lays out cfg's fleet without its telemetry, which Days simulates:
// the vehicles, Events and HiddenEvents, sorted as Generate returns them.
func Plan(cfg Config) *Fleet {
	cfg.validate()
	f := &Fleet{Config: cfg}
	f.assignVehicles()
	f.scheduleMaintenance()
	f.scheduleDTCs()
	byTime := func(a, b obd.Event) int { return a.Time.Compare(b.Time) }
	slices.SortStableFunc(f.Events, byTime)
	slices.SortStableFunc(f.HiddenEvents, byTime)
	return f
}

// Generate builds cfg's deterministic synthetic fleet: its Plan with every
// day placed into Records, the same bytes at any GOMAXPROCS.
func Generate(cfg Config) *Fleet {
	f := Plan(cfg)
	// A vehicle drives about 0.9 x AvgDriveMinutes a day (idle days,
	// light weekends), so this rarely regrows.
	f.Records = make([]timeseries.Record, 0, int(float64(cfg.Days*len(f.Vehicles))*cfg.AvgDriveMinutes))
	f.simulate(func(bufs [][]timeseries.Record, midnight time.Time, counts []int) error {
		f.Records = placeDay(f.Records, bufs, midnight, counts)
		return nil
	})
	return f
}

// Days simulates the fleet's telemetry and hands fn each day's records
// in the order Generate's Records holds them, in one buffer it reuses:
// fn must not keep or modify it. Days stops at fn's first error and
// returns it. Every call yields the same records at any GOMAXPROCS.
func (f *Fleet) Days(fn func(day []timeseries.Record) error) error {
	// buf[0] carries the last record out, for placeDay's overlap check.
	var buf []timeseries.Record
	return f.simulate(func(bufs [][]timeseries.Record, midnight time.Time, counts []int) error {
		carry := min(len(buf), 1)
		if carry > 0 {
			buf[0] = buf[len(buf)-1]
		}
		buf = placeDay(buf[:carry], bufs, midnight, counts)
		return fn(buf[carry:])
	})
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
	fail := func(v *Vehicle, fault FaultKind) {
		v.Fault = fault
		v.DegradeDays = cfg.DegradationDaysMin + rng.Intn(cfg.DegradationDaysMax-cfg.DegradationDaysMin+1)
		lo := v.DegradeDays + cfg.Days/4
		hi := max(cfg.Days-8, lo+1)
		v.FailureDay = lo + rng.Intn(hi-lo)
	}
	// Recorded failures: spread across distinct recorded vehicles.
	for k := 0; k < cfg.RecordedFailures; k++ {
		fail(&f.Vehicles[(k*cfg.RecordedVehicles)/cfg.RecordedFailures], cycleFault(k))
	}
	// Hidden failures on unrecorded vehicles.
	for k := 0; k < cfg.HiddenFailures; k++ {
		idx := cfg.RecordedVehicles + (k*max(1, cfg.NumVehicles-cfg.RecordedVehicles))/max(1, cfg.HiddenFailures)
		if idx >= cfg.NumVehicles {
			break
		}
		fail(&f.Vehicles[idx], cycleFault(k+2))
	}
}

// scheduleMaintenance lays out services and repairs. Services on
// recorded vehicles are recorded; everything on unrecorded vehicles goes
// to HiddenEvents only. Repairs terminate the vehicle's fault.
func (f *Fleet) scheduleMaintenance() {
	cfg := f.Config
	rng := rand.New(rand.NewSource(cfg.Seed*104729 + 29))
	maintain := func(v *Vehicle, day, hour int, typ obd.EventType, note string) {
		ev := obd.Event{VehicleID: v.ID, Time: f.dayTime(day, hour), Type: typ, Note: note}
		f.HiddenEvents = append(f.HiddenEvents, ev)
		v.maintDays = append(v.maintDays, day)
		if v.Recorded {
			f.Events = append(f.Events, ev)
		}
	}
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
				maintain(v, day, 18, obd.EventService, "standard service")
			}
			jitter := rng.Intn(interval/2+1) - interval/4
			day += interval + jitter
		}
		if v.FailureDay >= 0 {
			maintain(v, v.FailureDay, 19, obd.EventRepair, v.Fault.String())
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

// simulate runs the fleet's days in order. One pool of GOMAXPROCS
// workers, at most one per vehicle, lives for the whole call and
// simulates each vehicle's records for a day into that vehicle's buffer.
// There are two sets of buffers, each sized once for vehicleDay's
// bound: while place reads day d's set, the pool fills the other with
// day d+1. place gets the buffers, the day's midnight and dayBuckets
// ints of scratch, and places the day in (time, vehicle index) order,
// which does not depend on who simulated what. Each vehicle draws from
// its own rand.Source, seeded afresh on every call and kept from day to
// day, and only reads the shared weather table and its own Vehicle.
// simulate stops at place's first error, and returns only once every
// worker has exited.
func (f *Fleet) simulate(place func(bufs [][]timeseries.Record, midnight time.Time, counts []int) error) error {
	cfg := f.Config
	weather := f.dayWeather()
	n := len(f.Vehicles)
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)*7_368_787))
	}
	per := maxDayRecords(cfg.AvgDriveMinutes)
	var sets [2][][]timeseries.Record
	for s := range sets {
		backing := make([]timeseries.Record, n*per)
		sets[s] = make([][]timeseries.Record, n)
		for i := range sets[s] {
			sets[s][i] = backing[i*per : i*per : (i+1)*per]
		}
	}

	// Each day goes to every worker once; together they claim its
	// vehicles from next, and each marks its share done.
	workers := min(runtime.GOMAXPROCS(0), n)
	days := make(chan int)
	var next atomic.Int64
	var done, exited sync.WaitGroup
	exited.Add(workers)
	for range workers {
		go func() {
			defer exited.Done()
			for day := range days {
				bufs := sets[day%2]
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					bufs[i] = f.vehicleDay(&f.Vehicles[i], day, rngs[i], weather[day], bufs[i][:0])
				}
				done.Done()
			}
		}()
	}
	defer func() {
		close(days)
		exited.Wait()
	}()
	start := func(day int) {
		next.Store(0)
		done.Add(workers)
		for range workers {
			days <- day
		}
	}
	counts := make([]int, dayBuckets)
	start(0)
	for day := 0; day < cfg.Days; day++ {
		done.Wait()
		if day+1 < cfg.Days {
			start(day + 1)
		}
		if err := place(sets[day%2], f.dayTime(day, 0), counts); err != nil {
			return err
		}
	}
	return nil
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

// A vehicle's driving minutes on a day are AvgDriveMinutes times a
// factor drawn from [minDayFactor, minDayFactor+dayFactorSpan), less on
// weekends; it records at most one record per minute.
const (
	minDayFactor  = 0.55
	dayFactorSpan = 1.1
)

// maxDayRecords bounds the records vehicleDay appends for one vehicle
// and day at avgDriveMinutes. The one spare record absorbs the factor's
// rounding.
func maxDayRecords(avgDriveMinutes float64) int {
	return int((minDayFactor+dayFactorSpan)*avgDriveMinutes) + 1
}

// vehicleDay appends what v drives on simulated day to buf, trip by
// trip, at one record per minute of driving, drawing from v's own rng.
func (f *Fleet) vehicleDay(v *Vehicle, day int, rng *rand.Rand, weather float64, buf []timeseries.Record) []timeseries.Record {
	cfg := f.Config
	// Occasional idle days.
	if rng.Float64() < 0.06 {
		return buf
	}
	sev := v.severity(day)
	debt := v.debt(day)
	usage := v.Usage
	if v.DriftDay >= 0 && day >= v.DriftDay {
		usage = v.DriftUsage
	}
	// Total driving minutes today: lognormal-ish around the configured
	// average, lighter on "weekends" (every 6th/7th simulated day).
	factor := minDayFactor + rng.Float64()*dayFactorSpan
	if day%7 >= 5 {
		factor *= 0.6
	}
	minutes := int(cfg.AvgDriveMinutes * factor)
	cursor := 6*60 + rng.Intn(150) // first departure 06:00–08:30
	trip := 0
	// Day-level volatility: driver aggressiveness and tyre/wind
	// conditions for the whole day.
	loadScale := 0.93 + 0.14*rng.Float64()
	gearScale := 0.98 + 0.04*rng.Float64()
	midnight := f.dayTime(day, 0)
	dayOfYear := (cfg.Start.YearDay() + day - 1) % 365
	for minutes > 8 && cursor < 22*60 {
		ride := sampleRide(usage, rng)
		p := rideCatalog[ride]
		dur := min(p.minMinutes+rng.Intn(p.maxMinutes-p.minMinutes+1), minutes)
		residual := 2.0
		if trip > 0 {
			residual = 25 + rng.Float64()*20 // engine still warm
		}
		amb := ambientTemp(dayOfYear, cursor/60, weather)
		eng := newEngineState(v, rng, amb, residual, loadScale, gearScale)
		eng.debt = debt
		base := midnight.Add(time.Duration(cursor) * time.Minute)
		for m := 0; m < dur; m++ {
			vals := eng.step(p, amb, sev)
			buf = append(buf, timeseries.Record{
				VehicleID: v.ID,
				Time:      base.Add(time.Duration(m) * time.Minute),
				Values:    vals,
			})
		}
		minutes -= dur
		cursor += dur + 20 + rng.Intn(120) // gap before next trip
		trip++
	}
	return buf
}

// dayBuckets is the number of minute buckets placeDay keys a day into:
// two days' worth, as trips start before 22:00 and end by 00:40.
const dayBuckets = 2 * 24 * 60

// placeDay appends one day's per-vehicle buffers to out ordered by
// (time, vehicle index, position in buffer), which is what a stable
// sort by time gives the buffers' concatenation. It places records by
// (minutes after midnight, clamped to [0, dayBuckets), vehicle index)
// and stably sorts the day only when that left it out of time order.
// Equal times share a minute, so the sort keeps them in vehicle order.
// The day must start after the last record already in out, or it
// panics; the generator's days do, since a day's last trip ends before
// the next day's first departure. counts is dayBuckets ints of scratch.
func placeDay(out []timeseries.Record, bufs [][]timeseries.Record, midnight time.Time, counts []int) []timeseries.Record {
	mid := midnight.Unix()
	key := func(r *timeseries.Record) int {
		return int(min(max((r.Time.Unix()-mid)/60, 0), dayBuckets-1))
	}
	clear(counts)
	total := 0
	for _, buf := range bufs {
		total += len(buf)
		for i := range buf {
			counts[key(&buf[i])]++
		}
	}
	// Counts become each bucket's next slot in the day.
	at := len(out)
	for k, c := range counts {
		counts[k] = at
		at += c
	}
	out = slices.Grow(out, total)[:len(out)+total]
	for _, buf := range bufs {
		for i := range buf {
			k := key(&buf[i])
			out[counts[k]] = buf[i]
			counts[k]++
		}
	}
	byTime := func(a, b timeseries.Record) int { return a.Time.Compare(b.Time) }
	start := len(out) - total
	if day := out[start:]; !slices.IsSortedFunc(day, byTime) {
		slices.SortStableFunc(day, byTime)
	}
	if start > 0 && total > 0 && !out[start].Time.After(out[start-1].Time) {
		panic("fleetsim: a day's records overlap the day before")
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
